package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/difftest"
	"repro/internal/jvm"
)

// appendAt writes blob into path at offset size (creating the file),
// and returns the new size. A failed write is truncated back to size,
// so a retry appends onto an intact journal.
func appendAt(path string, size int64, blob []byte) (int64, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return size, err
	}
	_, werr := f.WriteAt(blob, size)
	cerr := f.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Truncate(path, size)
		return size, werr
	}
	return size + int64(len(blob)), nil
}

// readLines calls fn on each newline-terminated line of path, in order,
// until fn returns false or the lines run out. It returns the byte
// length of the lines fn accepted and the file's size; a missing file
// reads as empty.
func readLines(path string, fn func(line []byte) bool) (accepted, size int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			break // clean end, or an unterminated (torn) tail
		}
		if err != nil {
			return accepted, fi.Size(), err
		}
		if !fn(line) {
			break
		}
		accepted += int64(len(line))
	}
	return accepted, fi.Size(), nil
}

// loadDiscrepancies reads the n committed entries of the discrepancy
// journal and truncates whatever follows them: lines a fold appended
// before a kill kept its state.json from landing. Fewer than n intact
// entries, or an entry whose ID is not its position, fail the load.
// Runs before shards start.
func (m *Manager) loadDiscrepancies(n int) error {
	var bad error
	size, total, err := readLines(m.discPath(), func(line []byte) bool {
		if len(m.discs) == n {
			return false
		}
		var d Discrepancy
		if err := json.Unmarshal(line, &d); err != nil {
			bad = fmt.Errorf("service: %s line %d: %w", m.discPath(), len(m.discs)+1, err)
			return false
		}
		if d.ID != len(m.discs) {
			bad = fmt.Errorf("service: %s line %d holds discrepancy %d", m.discPath(), len(m.discs)+1, d.ID)
			return false
		}
		m.discs = append(m.discs, d)
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return err
	}
	if len(m.discs) < n {
		return fmt.Errorf("service: %s holds %d of the %d committed discrepancies", m.discPath(), len(m.discs), n)
	}
	if total > size {
		if err := os.Truncate(m.discPath(), size); err != nil {
			return err
		}
		m.logf("discrepancies: dropped %d uncommitted journal bytes", total-size)
	}
	m.discSize, m.journaled = size, n
	m.tel.Gauge(MetricDiscrepancies).Set(int64(n))
	return nil
}

// loadMemo replays memo.jsonl into the session verify memo. The memo is
// a cache, so a torn or undecodable line never fails the start: the
// replay ends there and the file is cut back to the lines it adopted.
func (m *Manager) loadMemo() error {
	var entries []jvm.VerifyMemoExportEntry
	size, total, err := readLines(m.memoPath(), func(line []byte) bool {
		var batch []jvm.VerifyMemoExportEntry
		if json.Unmarshal(line, &batch) != nil {
			return false
		}
		entries = append(entries, batch...)
		return true
	})
	if err != nil {
		return err
	}
	if total > size {
		if err := os.Truncate(m.memoPath(), size); err != nil {
			return err
		}
		m.logf("memo: cut %d bytes of unreadable journal tail", total-size)
	}
	m.memoSize = size
	if len(entries) > 0 {
		n := m.session.VerifyMemo.Import(entries, difftest.NewStandardRunner().VMs)
		m.logf("memo: adopted %d method verdicts from %s", n, m.memoPath())
	}
	m.memoMark = m.session.VerifyMemo.Seq()
	return nil
}

// persistMemo appends the verdicts stored since the last append as one
// memo.jsonl line (nothing when there are none).
func (m *Manager) persistMemo() error {
	m.memoMu.Lock()
	defer m.memoMu.Unlock()
	entries, mark := m.session.VerifyMemo.ExportSince(m.memoMark)
	if len(entries) > 0 {
		blob, err := json.Marshal(entries)
		if err != nil {
			return err
		}
		size, err := appendAt(m.memoPath(), m.memoSize, append(blob, '\n'))
		if err != nil {
			return err
		}
		m.memoSize = size
	}
	m.memoMark = mark
	return nil
}
