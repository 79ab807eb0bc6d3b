package beacon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"qtag/internal/obs"
)

// Journal persists events as JSON Lines to an io.Writer — the durability
// layer under the in-memory Store. A collection server typically fans
// events into both via Tee; after a restart, ReplayJournal rebuilds the
// store (idempotent ingestion makes replays safe even with overlapping
// journals).
//
// Journal implements Sink and is safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	w       io.Writer
	buf     *bufio.Writer
	n       int
	pending int // events accepted since the last Flush
	closed  bool
}

// NewJournal wraps the writer. The caller owns the writer's lifecycle
// (e.g. closing the underlying file) but must call Flush/Close on the
// journal first.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, buf: bufio.NewWriter(w)}
}

// Submit implements Sink: it appends the event as one JSON line.
func (j *Journal) Submit(e Event) error {
	if err := e.Validate(); err != nil {
		return err
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("beacon: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.buf.Write(line); err != nil {
		return fmt.Errorf("beacon: journal write: %w", err)
	}
	if err := j.buf.WriteByte('\n'); err != nil {
		return fmt.Errorf("beacon: journal write: %w", err)
	}
	j.n++
	j.pending++
	return nil
}

// SubmitBatch implements BatchSink: it appends the whole batch under a
// single lock acquisition, one JSON line per event. Encoding happens
// outside the lock. A write error mid-batch may leave a prefix of the
// batch in the journal; the retrying caller re-appends the whole batch,
// which is safe because replay feeds an idempotent store.
func (j *Journal) SubmitBatch(events []Event) error {
	lines := make([][]byte, 0, len(events))
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return err
		}
		line, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("beacon: journal encode: %w", err)
		}
		lines = append(lines, line)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, line := range lines {
		if _, err := j.buf.Write(line); err != nil {
			return fmt.Errorf("beacon: journal write: %w", err)
		}
		if err := j.buf.WriteByte('\n'); err != nil {
			return fmt.Errorf("beacon: journal write: %w", err)
		}
		j.n++
		j.pending++
	}
	return nil
}

// RegisterMetrics exports the journal's durability counters on the
// registry.
func (j *Journal) RegisterMetrics(r *obs.Registry) {
	r.GaugeFunc("qtag_journal_pending", "Events accepted since the last flush — the durability backlog.",
		func() float64 { return float64(j.Pending()) })
	r.GaugeFunc("qtag_journal_events", "Events written to the journal since startup.",
		func() float64 { return float64(j.Len()) })
}

// Len returns the number of events written.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Pending returns the number of events accepted since the last Flush —
// the durability backlog. The admission backstop sheds ingestion when this
// grows past -shed-pending (the journal writer is not keeping up).
func (j *Journal) Pending() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

// Flush pushes buffered lines to the underlying writer.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if err := j.buf.Flush(); err != nil {
		return err
	}
	j.pending = 0
	return nil
}

// Sync flushes and, when the underlying writer supports it (an *os.File
// does), forces the data to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flushLocked(); err != nil {
		return err
	}
	if s, ok := j.w.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Close flushes, fsyncs when possible and, when the underlying writer is
// an io.Closer, closes it. Close is idempotent: the graceful-shutdown
// path closes explicitly after the HTTP server drains, and a deferred
// Close becomes a no-op.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.flushLocked(); err != nil {
		return err
	}
	if s, ok := j.w.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return err
		}
	}
	if c, ok := j.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ReplayStats summarises a journal replay.
type ReplayStats struct {
	// Replayed counts events successfully submitted to the sink.
	Replayed int
	// Skipped counts undecodable or invalid lines (e.g. a torn final
	// write after a crash); replay continues past them.
	Skipped int
}

// ReplayJournal streams a JSONL journal into a sink. Corrupt lines are
// skipped and counted rather than aborting the replay — a torn tail
// write must not make the whole journal unreadable.
func ReplayJournal(r io.Reader, sink Sink) (ReplayStats, error) {
	var st ReplayStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			st.Skipped++
			continue
		}
		if err := sink.Submit(e); err != nil {
			st.Skipped++
			continue
		}
		st.Replayed++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("beacon: journal read: %w", err)
	}
	return st, nil
}

// Tee returns a Sink fanning every event to all sinks in order. The
// first error aborts the fan-out and is returned; earlier sinks have
// already ingested the event, which is safe because ingestion is
// idempotent everywhere in this package. The result is also a
// BatchSink: a batch goes to each sink in turn, whole where the sink is
// a BatchSink and event by event where it is not.
func Tee(sinks ...Sink) Sink { return teeSink(sinks) }

type teeSink []Sink

// Submit implements Sink.
func (t teeSink) Submit(e Event) error {
	for _, s := range t {
		if err := s.Submit(e); err != nil {
			return err
		}
	}
	return nil
}

// SubmitBatch implements BatchSink.
func (t teeSink) SubmitBatch(events []Event) error {
	for _, s := range t {
		if err := submitBatch(s, events); err != nil {
			return err
		}
	}
	return nil
}

func (t teeSink) batchWhole() bool {
	for _, s := range t {
		if wholeBatch(s) == nil {
			return false
		}
	}
	return true
}

// submitBatch hands sink the batch in one call when it is a BatchSink
// and event by event, stopping at the first error, when it is not.
func submitBatch(sink Sink, events []Event) error {
	if bs, ok := sink.(BatchSink); ok {
		return bs.SubmitBatch(events)
	}
	for _, e := range events {
		if err := sink.Submit(e); err != nil {
			return err
		}
	}
	return nil
}
