package beacon

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
)

// ReplayStats summarises a journal replay.
type ReplayStats struct {
	// Replayed counts events successfully submitted to the sink.
	Replayed int
	// Skipped counts undecodable or invalid lines (e.g. a torn final
	// write after a crash); replay continues past them.
	Skipped int
}

// maxJournalLine caps one JSONL line; no event comes near it.
const maxJournalLine = 1 << 20

// ReplayJournal streams a JSONL journal — the format servers before the
// WAL wrote — into a sink. Corrupt lines are skipped and counted rather
// than aborting the replay: a torn tail write, or the zero-filled page a
// power loss leaves (one run longer than maxJournalLine, skipped whole),
// must not make the whole journal unreadable.
func ReplayJournal(r io.Reader, sink Sink) (ReplayStats, error) {
	var st ReplayStats
	br := bufio.NewReaderSize(r, 64*1024)
	var line []byte
	tooLong := false
	for {
		chunk, err := br.ReadSlice('\n')
		if !tooLong {
			if len(line)+len(chunk) > maxJournalLine {
				tooLong = true
			} else {
				line = append(line, chunk...)
			}
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		if tooLong {
			st.Skipped++
		} else {
			st.replayLine(bytes.TrimSpace(line), sink)
		}
		line, tooLong = line[:0], false
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return st, fmt.Errorf("beacon: journal read: %w", err)
		}
	}
}

// replayLine submits one journal line, counting it replayed or skipped;
// a blank line counts as neither.
func (st *ReplayStats) replayLine(line []byte, sink Sink) {
	if len(line) == 0 {
		return
	}
	e, err := decodeEvent(string(line))
	if err != nil || sink.Submit(e) != nil {
		st.Skipped++
		return
	}
	st.Replayed++
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
