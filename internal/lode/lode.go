// Package lode is the persistent run-record dataset: an append-only store
// of per-run records written as JSONL segment files plus a small JSON
// index, so fleet sweeps, bench records and counterexample schedules are
// queryable on-disk artifacts instead of process memory. It is the
// durable tail of the streaming sink pipeline — a million-run sweep
// appends a million records at bounded memory, and nothing about a run
// survives in RAM once its record is flushed.
//
// # Layout
//
// A dataset is a directory:
//
//	<dir>/index.json        — the index (see Index)
//	<dir>/seg-000000.jsonl  — segment files, one JSON record per line
//	<dir>/seg-000001.jsonl
//
// Segments rotate after SegmentRecords records, so any single file stays
// manageable and partial reads can skip whole segments by index entry.
// The index is rewritten atomically (temp file + rename) on every
// rotation and on Close; after a crash the dataset is readable up to the
// last complete line of the newest segment.
//
// # Record schema (JSONL, one object per line)
//
// Every line is one Record. Field semantics:
//
//	seed      int64  — the run's derived seed (fleet.RunSeed)
//	scenario  string — fleet scenario name
//	workload  string — workload name ("mutex/tas", ...)
//	run       int    — run index within its (scenario, workload) cell
//	n         int    — processes in the run
//	stop      string — why the run ended ("all-done", "max-steps", ...)
//	events    int64  — events the run emitted
//	steps     int64  — scheduling steps consumed (Trace.ScheduledSteps)
//	accesses  int64  — shared-memory accesses (step complexity spent)
//	digest    string — 16-hex FNV-1a digest of the full event stream
//	verdict   string — "ok", "violation", "access-error" or "panic"
//	err       string — property/access error (omitted when empty)
//	schedule  []int  — decision schedule, sim schedule-entry encoding
//	                   (only for violations; replayable via Session.Seek)
//
// The digest is computed by DigestSink over every event field the
// simulator records, so two runs with equal digests took the same
// schedule and observed the same values; it is the cheap cross-check
// that a resumed or re-sharded sweep re-executed the runs it claims.
package lode

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// SegmentRecords is the rotation threshold: a segment file is sealed and
// a new one started after this many records. A variable so tests (and
// unusual deployments) can tune it; writers read it per rotation.
var SegmentRecords int64 = 100_000

// Record is one run of a sweep; see the package comment for the schema.
type Record struct {
	Seed     int64  `json:"seed"`
	Scenario string `json:"scenario"`
	Workload string `json:"workload"`
	Run      int    `json:"run"`
	N        int    `json:"n"`
	Stop     string `json:"stop"`
	Events   int64  `json:"events"`
	Steps    int64  `json:"steps"`
	Accesses int64  `json:"accesses"`
	Digest   string `json:"digest"`
	Verdict  string `json:"verdict"`
	Err      string `json:"err,omitempty"`
	Schedule []int  `json:"schedule,omitempty"`
}

// Index is the dataset's table of contents.
type Index struct {
	Version  int       `json:"version"`
	Total    int64     `json:"total"`
	Segments []Segment `json:"segments"`
}

// Segment describes one sealed or active segment file.
type Segment struct {
	File    string `json:"file"`
	Records int64  `json:"records"`
}

// Writer appends records to a dataset directory. It is safe for
// concurrent use (fleet workers append from many goroutines); records
// from concurrent appenders interleave nondeterministically, which is
// fine — records are self-describing and ordered by their coordinates,
// not their file position.
type Writer struct {
	mu   sync.Mutex
	dir  string
	idx  Index
	cur  *os.File
	bw   *bufio.Writer
	enc  *json.Encoder
	nseg int64 // records in the active segment
}

// Create initialises an empty dataset at dir (created if missing; must
// not already contain a dataset).
func Create(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lode: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); err == nil {
		return nil, fmt.Errorf("lode: dataset already exists at %s", dir)
	}
	w := &Writer{dir: dir, idx: Index{Version: 1}}
	if err := w.rotate(); err != nil {
		return nil, err
	}
	return w, nil
}

// rotate seals the active segment (if any) and opens the next one.
// Callers hold mu (or are the constructor).
func (w *Writer) rotate() error {
	if w.cur != nil {
		if err := w.seal(); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("seg-%06d.jsonl", len(w.idx.Segments))
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return fmt.Errorf("lode: %w", err)
	}
	w.cur = f
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.enc = json.NewEncoder(w.bw)
	w.nseg = 0
	w.idx.Segments = append(w.idx.Segments, Segment{File: name})
	return w.writeIndex()
}

func (w *Writer) seal() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("lode: %w", err)
	}
	if err := w.cur.Close(); err != nil {
		return fmt.Errorf("lode: %w", err)
	}
	w.cur = nil
	return nil
}

// writeIndex rewrites index.json atomically. Callers hold mu.
func (w *Writer) writeIndex() error {
	data, err := json.MarshalIndent(&w.idx, "", " ")
	if err != nil {
		return fmt.Errorf("lode: %w", err)
	}
	tmp := filepath.Join(w.dir, "index.json.tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("lode: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(w.dir, "index.json")); err != nil {
		return fmt.Errorf("lode: %w", err)
	}
	return nil
}

// Append writes one record.
func (w *Writer) Append(r *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil {
		return fmt.Errorf("lode: writer is closed")
	}
	if w.nseg >= SegmentRecords {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	if err := w.enc.Encode(r); err != nil {
		return fmt.Errorf("lode: %w", err)
	}
	w.nseg++
	w.idx.Total++
	w.idx.Segments[len(w.idx.Segments)-1].Records = w.nseg
	return nil
}

// Total returns the number of records appended so far.
func (w *Writer) Total() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.idx.Total
}

// Close flushes the active segment and writes the final index. The
// writer is unusable afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur == nil {
		return nil
	}
	if err := w.seal(); err != nil {
		return err
	}
	return w.writeIndex()
}

// Dataset reads a dataset directory.
type Dataset struct {
	Dir   string
	Index Index
}

// Open reads the index of an existing dataset.
func Open(dir string) (*Dataset, error) {
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		return nil, fmt.Errorf("lode: %w", err)
	}
	d := &Dataset{Dir: dir}
	if err := json.Unmarshal(data, &d.Index); err != nil {
		return nil, fmt.Errorf("lode: corrupt index: %w", err)
	}
	if d.Index.Version != 1 {
		return nil, fmt.Errorf("lode: unsupported dataset version %d", d.Index.Version)
	}
	return d, nil
}

// Scan streams every record, in segment order, to fn until fn returns
// false or the records run out. One record is resident at a time.
//
// A writer that crashed mid-append leaves the newest segment ending in
// an unterminated line that may not decode; Scan skips that torn tail.
// An undecodable line anywhere else is an error.
func (d *Dataset) Scan(fn func(*Record) bool) error {
	for i, seg := range d.Index.Segments {
		more, err := d.scanSegment(seg.File, i == len(d.Index.Segments)-1, fn)
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// scanSegment streams one segment's records to fn; more is false once fn
// has asked to stop or the segment ended in a torn tail.
func (d *Dataset) scanSegment(file string, newest bool, fn func(*Record) bool) (more bool, err error) {
	f, err := os.Open(filepath.Join(d.Dir, file))
	if err != nil {
		return false, fmt.Errorf("lode: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			if newest && !sc.Scan() && sc.Err() == nil && endsMidLine(f) {
				return false, nil
			}
			return false, fmt.Errorf("lode: corrupt record in %s: %w", file, err)
		}
		if !fn(&r) {
			return false, nil
		}
	}
	if err := sc.Err(); err != nil {
		return false, fmt.Errorf("lode: %w", err)
	}
	return true, nil
}

// endsMidLine reports whether f's last byte is something other than a
// newline: its last line is unterminated.
func endsMidLine(f *os.File) bool {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return false
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], st.Size()-1); err != nil {
		return false
	}
	return b[0] != '\n'
}
