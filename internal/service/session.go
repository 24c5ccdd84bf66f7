// Package service is the campaign-as-a-service layer: a long-running
// daemon (cmd/classfuzzd) hosting N sharded fuzzing campaigns over the
// staged engine, a coordinator folding shard results into one session
// view, a versioned checkpoint/resume protocol that survives kill -9
// with byte-identical results, and an HTTP corpus/work API with
// backpressure and graceful drain. See DESIGN.md ("Service layer").
package service

import (
	"sync"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/telemetry"
)

// Metric names the service layer reports into the session registry.
// cmd/report's Service section and the dashboard render these.
const (
	// MetricCheckpointsWritten counts shard checkpoints persisted to
	// disk (periodic timer, API trigger, or drain-on-shutdown). An
	// epoch that already committed every iteration folds instead, so
	// a drain's checkpoints are exactly the ones a restart restores.
	MetricCheckpointsWritten = "service.checkpoints.written"
	// MetricCheckpointsRestored counts shard campaigns resumed from a
	// checkpoint at daemon startup.
	MetricCheckpointsRestored = "service.checkpoints.restored"
	// MetricQueueDepth gauges the seed-intake queue's current depth.
	MetricQueueDepth = "service.queue.depth"
	// MetricQueueHighWater gauges the deepest the intake queue has been.
	MetricQueueHighWater = "service.queue.hwm"
	// MetricSeedsAccepted counts submitted classfiles adopted into the
	// corpus; MetricSeedsRejected counts malformed submissions and
	// MetricSeedsThrottled counts 429s from a full queue.
	MetricSeedsAccepted  = "service.seeds.accepted"
	MetricSeedsRejected  = "service.seeds.rejected"
	MetricSeedsThrottled = "service.seeds.throttled"
	// MetricShardMerges counts shard epoch results folded into the
	// session; MetricEpochsCompleted is its alias-by-intent (merges
	// happen exactly once per completed epoch).
	MetricShardMerges     = "service.shard.merges"
	MetricEpochsCompleted = "service.epochs.completed"
	// MetricDiscrepancies gauges the discrepancy log's length.
	MetricDiscrepancies = "service.discrepancies"
)

// Session aggregates campaign results produced by independent runs —
// the daemon's shard epochs, or the experiment driver's six campaigns
// — into one view: a telemetry roll-up and the word-OR of every folded campaign's coverage trace.
// It keeps no folded result: a producer that needs them (the
// experiment driver's tables) holds its own, so a long-running daemon's
// memory does not grow with its fold count. Fold is safe for concurrent
// use; the exported fields are for direct reading once the producing
// goroutines have finished.
type Session struct {
	mu sync.Mutex

	// Telemetry is the session-wide metrics roll-up. Campaigns run
	// against private registries which Fold merges in as they finish,
	// so campaign.* counters here are totals across all folds; every
	// session Runner reports here directly.
	Telemetry *telemetry.Registry

	cov    *coverage.Trace
	merges int
}

// NewSession builds an empty session. A nil reg gets a fresh registry;
// passing one lets a live /metrics.json endpoint watch the session as
// it fills (observe-only either way).
func NewSession(reg *telemetry.Registry) *Session {
	if reg == nil {
		reg = telemetry.New()
	}
	return &Session{Telemetry: reg, cov: coverage.NewTrace()}
}

// Fold absorbs one finished campaign: its private telemetry registry
// (may be nil) merges into the roll-up, and its merged coverage trace —
// when the algorithm produces one — ORs into the session trace. All
// campaigns share the process-global probe registry, so trace words
// are index-compatible across folds.
func (s *Session) Fold(res *campaign.Result, reg *telemetry.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if reg != nil {
		s.Telemetry.Merge(reg)
	}
	if res.Coverage != nil {
		s.cov = coverage.Merge(s.cov, res.Coverage)
	}
	s.merges++
}

// Runner builds a standard five-VM differential runner wired to the
// session's metrics roll-up.
func (s *Session) Runner() *difftest.Runner {
	r := difftest.NewStandardRunner()
	r.UseTelemetry(s.Telemetry)
	return r
}

// Coverage returns the statistics of the merged session trace.
func (s *Session) Coverage() coverage.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cov.Stats()
}

// Merges returns how many campaign results have been folded in.
func (s *Session) Merges() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.merges
}
