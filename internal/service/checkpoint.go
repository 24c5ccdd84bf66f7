package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
)

// On-disk layout under Config.DataDir:
//
//	state.json               — State: config echo, submitted count, shard
//	                           epoch frontiers, next_discrepancy
//	discrepancies.jsonl      — discrepancy journal, one Discrepancy per
//	                           line in ID order
//	corpus/subNNNNN.class    — submitted seed classfiles, arrival order
//	checkpoints/shard-N.json — ShardCheckpoint per shard (mid-epoch)
//
// Every write costs what changed, not what the daemon has accumulated:
// state.json is fixed-size and a fold appends its own discrepancies.
//
// Write ordering is the consistency argument. A corpus file is written
// before the state.json that counts it, inside the critical section
// that makes the seed visible to shards, so no shard checkpoint can
// reference a seed the disk does not hold. A fold appends its
// discrepancies to the journal and only then replaces state.json with
// the advanced frontier and next_discrepancy: next_discrepancy is the
// commit point, and a load reads exactly that many journal lines and
// truncates the rest — lines of a fold whose state.json never landed,
// which the re-run epoch appends again. Shard checkpoints whose Epoch
// is behind the state frontier are stale relics of checkpoint/fold
// races and are ignored at load. state.json and checkpoints are written
// to a temp name in the same directory and renamed into place, so a
// kill -9 at any instant leaves either the old or the new version,
// never a torn one.

// StateVersion is state.json's format version.
const StateVersion = 2

// ShardCheckpointVersion is the shard checkpoint format version.
const ShardCheckpointVersion = 1

// State is the daemon's persistent root: enough to validate that a
// restart's configuration matches the data directory, reload the
// corpus, know each shard's epoch frontier and how much of the
// discrepancy journal is committed. Its size does not grow with the
// daemon's history.
type State struct {
	Version    int    `json:"version"`
	Algorithm  string `json:"algorithm"`
	Criterion  int    `json:"criterion"`
	Seed       int64  `json:"seed"`
	SeedCount  int    `json:"seed_count"`
	Iterations int    `json:"iterations"`
	Shards     int    `json:"shards"`
	// SeedStrategy is the seed-selection policy the data dir was built
	// under.
	SeedStrategy string `json:"seed_strategy"`
	// Submitted counts adopted corpus files; submission i is
	// corpus/sub{i:05d}.class (checkpoints pin a prefix length).
	Submitted int `json:"submitted"`
	// ShardEpochs[i] is shard i's next epoch to run — every epoch
	// below it has been folded into the session.
	ShardEpochs []int `json:"shard_epochs"`
	// NextDiscrepancy is the next discrepancy ID to assign and the
	// number of committed discrepancies.jsonl lines.
	NextDiscrepancy int `json:"next_discrepancy"`
}

// ShardCheckpoint freezes one shard mid-epoch: the engine snapshot
// plus the corpus prefix the epoch was started with.
type ShardCheckpoint struct {
	Version int `json:"version"`
	Shard   int `json:"shard"`
	Epoch   int `json:"epoch"`
	// SubmittedUsed is how many submitted seeds (in arrival order) the
	// epoch's corpus includes after the generated base seeds.
	SubmittedUsed int                `json:"submitted_used"`
	Campaign      *campaign.Snapshot `json:"campaign"`
}

// Discrepancy is one discrepancy-triggering classfile found by a shard
// epoch. IDs are assigned in fold-arrival order, from 0 without gaps
// (persisted across restarts, so entry i of the log has ID i); the
// (Shard, Epoch, Class) triple is the deterministic identity.
type Discrepancy struct {
	ID          int      `json:"id"`
	Shard       int      `json:"shard"`
	Epoch       int      `json:"epoch"`
	Iteration   int      `json:"iteration"`
	Class       string   `json:"class"`
	Fingerprint uint64   `json:"fingerprint"`
	Vector      string   `json:"vector"`
	Outcomes    []string `json:"outcomes"`
	// Cluster is the seed cluster the triggering class's lineage roots
	// in (-1 when no scheduler is active, e.g. the uniform strategy).
	Cluster int `json:"cluster"`
}

// writeJSONAtomic marshals v and renames it into place. The temp file
// lives in the target's directory so the rename cannot cross devices.
func writeJSONAtomic(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(append(blob, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// readJSON loads path into v; a missing file returns os.ErrNotExist.
func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}

func (m *Manager) statePath() string     { return filepath.Join(m.cfg.DataDir, "state.json") }
func (m *Manager) discPath() string      { return filepath.Join(m.cfg.DataDir, "discrepancies.jsonl") }
func (m *Manager) corpusDir() string     { return filepath.Join(m.cfg.DataDir, "corpus") }
func (m *Manager) checkpointDir() string { return filepath.Join(m.cfg.DataDir, "checkpoints") }
func (m *Manager) checkpointPath(shard int) string {
	return filepath.Join(m.checkpointDir(), fmt.Sprintf("shard-%d.json", shard))
}
func (m *Manager) corpusPath(i int) string {
	return filepath.Join(m.corpusDir(), fmt.Sprintf("sub%05d.class", i))
}

// stateLocked builds the current State. Caller holds m.mu.
func (m *Manager) stateLocked() *State {
	return &State{
		Version:         StateVersion,
		Algorithm:       string(m.cfg.Algorithm),
		Criterion:       int(m.cfg.Criterion),
		Seed:            m.cfg.Seed,
		SeedCount:       m.cfg.SeedCount,
		Iterations:      m.cfg.Iterations,
		Shards:          m.cfg.Shards,
		SeedStrategy:    string(m.strategy),
		Submitted:       len(m.submitted),
		ShardEpochs:     append([]int(nil), m.shardEpochs...),
		NextDiscrepancy: len(m.discs),
	}
}

// commitLocked persists the daemon's state: log entries not yet in the
// discrepancy journal are appended to it, then state.json is replaced,
// which commits them. When the append fails nothing is committed, and
// the next commit retries it. Caller holds m.mu.
func (m *Manager) commitLocked() error {
	if pending := m.discs[m.journaled:]; len(pending) > 0 {
		var buf []byte
		for i := range pending {
			line, err := json.Marshal(&pending[i])
			if err != nil {
				return err
			}
			buf = append(append(buf, line...), '\n')
		}
		size, err := appendAt(m.discPath(), m.discSize, buf)
		if err != nil {
			return err
		}
		m.discSize, m.journaled = size, len(m.discs)
	}
	return writeJSONAtomic(m.statePath(), m.stateLocked())
}

// validateState checks that a loaded state matches the manager's
// configuration; resuming a data directory under a different campaign
// shape would silently fork every determinism guarantee, so it fails.
func (m *Manager) validateState(st *State) error {
	fail := func(field string, disk, cfg any) error {
		return fmt.Errorf("service: data dir %s mismatch on %s: disk %v, config %v",
			m.cfg.DataDir, field, disk, cfg)
	}
	if st.Algorithm != string(m.cfg.Algorithm) {
		return fail("algorithm", st.Algorithm, m.cfg.Algorithm)
	}
	if st.Criterion != int(m.cfg.Criterion) {
		return fail("criterion", st.Criterion, m.cfg.Criterion)
	}
	if st.Seed != m.cfg.Seed {
		return fail("seed", st.Seed, m.cfg.Seed)
	}
	if st.SeedCount != m.cfg.SeedCount {
		return fail("seed_count", st.SeedCount, m.cfg.SeedCount)
	}
	if st.Iterations != m.cfg.Iterations {
		return fail("iterations", st.Iterations, m.cfg.Iterations)
	}
	if st.Shards != m.cfg.Shards {
		return fail("shards", st.Shards, m.cfg.Shards)
	}
	if st.SeedStrategy != string(m.strategy) {
		return fail("seed_strategy", st.SeedStrategy, m.strategy)
	}
	if len(st.ShardEpochs) != m.cfg.Shards {
		return fmt.Errorf("service: state has %d shard frontiers for %d shards", len(st.ShardEpochs), m.cfg.Shards)
	}
	for i, e := range st.ShardEpochs {
		if e < 0 {
			return fmt.Errorf("service: state has negative frontier %d for shard %d", e, i)
		}
	}
	if st.Submitted < 0 || st.NextDiscrepancy < 0 {
		return fmt.Errorf("service: state has negative counts (submitted %d, next_discrepancy %d)", st.Submitted, st.NextDiscrepancy)
	}
	return nil
}

// loadShardCheckpoint reads shard i's checkpoint if one exists and is
// current (its epoch equals the state frontier — older ones are stale
// relics of checkpoint/fold races and are deleted). Caller holds m.mu
// or runs before shards start.
func (m *Manager) loadShardCheckpoint(i int) *ShardCheckpoint {
	var cp ShardCheckpoint
	if err := readJSON(m.checkpointPath(i), &cp); err != nil {
		if !os.IsNotExist(err) {
			m.logf("shard %d: unreadable checkpoint ignored: %v", i, err)
		}
		return nil
	}
	switch {
	case cp.Version != ShardCheckpointVersion:
		m.logf("shard %d: checkpoint version %d unsupported, ignored", i, cp.Version)
	case cp.Shard != i:
		m.logf("shard %d: checkpoint names shard %d, ignored", i, cp.Shard)
	case cp.Epoch < m.shardEpochs[i]:
		// Stale: the epoch already folded. Normal after the fold/drain
		// race; remove quietly.
		os.Remove(m.checkpointPath(i))
	case cp.Epoch > m.shardEpochs[i]:
		m.logf("shard %d: checkpoint epoch %d ahead of state frontier %d, ignored", i, cp.Epoch, m.shardEpochs[i])
	case cp.SubmittedUsed > len(m.submitted):
		m.logf("shard %d: checkpoint pins %d submitted seeds, corpus holds %d; ignored", i, cp.SubmittedUsed, len(m.submitted))
	case cp.Campaign == nil:
		m.logf("shard %d: checkpoint has no campaign snapshot, ignored", i)
	default:
		return &cp
	}
	return nil
}
