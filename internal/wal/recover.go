package wal

import (
	"errors"
	"fmt"
	"time"
)

// RecoverResult is the exact loss/duplication accounting of one recovery
// (or read-only Scan) pass over a WAL directory.
type RecoverResult struct {
	// Segments counts segment files scanned (including quarantined ones).
	Segments int
	// Records counts valid records replayed.
	Records int
	// Quarantined counts corrupted chunks set aside: checksum-failed
	// records, lost-framing remainders of non-final segments, and whole
	// segments with an unreadable header.
	Quarantined int
	// QuarantinedBytes is the total size of quarantined data.
	QuarantinedBytes int64
	// QuarantinedSpans gives, chunk by chunk, the indices the quarantined
	// records held: its own index for a checksum-failed record, the rest
	// of its segment — up to the next segment's first index, unbounded in
	// the final one — for a lost-framing remainder or an unreadable
	// header.
	QuarantinedSpans []Span
	// QuarantineFiles lists the sidecar/renamed files recovery produced
	// (empty for a read-only Scan).
	QuarantineFiles []string
	// TornTail reports that the final segment ended mid-record — the
	// signature of a crash between the last fsync and the tear.
	TornTail bool
	// TruncatedBytes is the size of the torn tail discarded from the
	// final segment.
	TruncatedBytes int64
	// Duration is the wall time the pass took (set by Open).
	Duration time.Duration
}

// Span is the WAL indices First through Last.
type Span struct{ First, Last uint64 }

// segmentScan is the outcome of scanning one segment's bytes.
type segmentScan struct {
	next        uint64   // index after the last frame seen
	good        int64    // end offset of the last structurally sound frame
	records     int      // valid records replayed
	quarantined [][]byte // checksum-failed frames, in order
	badIndex    []uint64 // the index of each checksum-failed frame
	torn        bool     // data ends in an incomplete / unframeable region
	tornChunk   []byte   // the unframeable remainder (aliases data)
}

// scanSegment walks the records of one segment (data includes the
// header, already validated to declare firstIndex). Valid records are
// passed to replay in order; a replay error aborts the scan.
func scanSegment(data []byte, firstIndex uint64, maxRecord int, replay func(uint64, []byte) error) (segmentScan, error) {
	sc := segmentScan{next: firstIndex, good: SegmentHeaderSize}
	off := SegmentHeaderSize
	for off < len(data) {
		payload, n, err := DecodeRecord(data[off:], maxRecord)
		switch {
		case err == nil:
			if replay != nil {
				if rerr := replay(sc.next, payload); rerr != nil {
					return sc, rerr
				}
			}
			sc.records++
			sc.next++
			off += n
			sc.good = int64(off)
		case errors.Is(err, ErrChecksum):
			// The frame is structurally intact: quarantine it and
			// resynchronise at the next record boundary. The corrupted
			// record still consumed its index when it was written.
			sc.quarantined = append(sc.quarantined, data[off:off+n])
			sc.badIndex = append(sc.badIndex, sc.next)
			sc.next++
			off += n
			sc.good = int64(off)
		default:
			// ErrShortRecord / ErrRecordTooLarge: framing is lost from
			// here to the end of the segment.
			sc.torn = true
			sc.tornChunk = data[off:]
			off = len(data)
		}
	}
	return sc, nil
}

// segmentEnd is the last index segment i of segs can hold: the one before
// the next segment's first, unbounded for the final segment.
func segmentEnd(segs []sealedSeg, i int) uint64 {
	if i+1 < len(segs) {
		return segs[i+1].first - 1
	}
	return ^uint64(0)
}

// quarantinedSpans returns the spans of sc's quarantined chunks: the
// checksum-failed frames, then, when torn counts as quarantined, the
// remainder up to end.
func (sc *segmentScan) quarantinedSpans(torn bool, end uint64) []Span {
	var spans []Span
	for _, i := range sc.badIndex {
		spans = append(spans, Span{i, i})
	}
	if torn {
		spans = append(spans, Span{sc.next, end})
	}
	return spans
}

// recover scans the segments of w.opts.Dir in order, replaying valid
// records, truncating the final segment's torn tail, quarantining
// mid-stream corruption, and leaving w positioned to append.
func (w *WAL) recover(replay func(uint64, []byte) error, res *RecoverResult) error {
	segs, err := listSegments(w.fs, w.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: list segments: %w", err)
	}
	adopted := false
	for i, seg := range segs {
		isLast := i == len(segs)-1
		data, err := w.fs.ReadFile(seg.path)
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		res.Segments++
		firstIndex, herr := parseSegmentHeader(data)
		if herr != nil {
			if isLast && len(data) < SegmentHeaderSize {
				// Torn segment creation: the crash hit between Create
				// and the header sync. Nothing could have been stored;
				// drop the stub and recreate the segment below.
				res.TornTail = true
				res.TruncatedBytes += int64(len(data))
				if err := w.fs.Remove(seg.path); err != nil {
					return fmt.Errorf("wal: drop torn segment stub: %w", err)
				}
				continue
			}
			// Unreadable header mid-stream: the segment's framing is
			// gone wholesale. Quarantine the file and move on.
			qpath := seg.path + ".quarantine"
			if err := w.fs.Rename(seg.path, qpath); err != nil {
				return fmt.Errorf("wal: quarantine segment: %w", err)
			}
			res.Quarantined++
			res.QuarantinedBytes += int64(len(data))
			res.QuarantinedSpans = append(res.QuarantinedSpans, Span{seg.first, segmentEnd(segs, i)})
			res.QuarantineFiles = append(res.QuarantineFiles, qpath)
			continue
		}
		sc, err := scanSegment(data, firstIndex, w.opts.MaxRecordBytes, replay)
		if err != nil {
			return err
		}
		res.Records += sc.records
		w.nextIndex = sc.next

		// Quarantine sidecar: rewritten from scratch each recovery so
		// its contents are a deterministic function of the segment.
		chunks := sc.quarantined
		if sc.torn && !isLast {
			// A mid-stream segment that loses framing cannot be
			// truncated (later records live in later segments); its
			// remainder is quarantined instead.
			chunks = append(chunks, sc.tornChunk)
		}
		if len(chunks) > 0 {
			qpath := seg.path + ".quarantine"
			if err := writeQuarantine(w.fs, qpath, chunks); err != nil {
				return err
			}
			res.Quarantined += len(chunks)
			for _, c := range chunks {
				res.QuarantinedBytes += int64(len(c))
			}
			res.QuarantinedSpans = append(res.QuarantinedSpans, sc.quarantinedSpans(sc.torn && !isLast, segmentEnd(segs, i))...)
			res.QuarantineFiles = append(res.QuarantineFiles, qpath)
		}

		if !isLast {
			w.sealed = append(w.sealed, sealedSeg{path: seg.path, first: firstIndex, last: sc.next - 1})
			continue
		}

		// Final segment: truncate the torn tail and adopt it as active.
		f, err := w.fs.OpenAppend(seg.path)
		if err != nil {
			return fmt.Errorf("wal: reopen segment: %w", err)
		}
		if sc.torn {
			if err := f.Truncate(sc.good); err != nil {
				f.Close()
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("wal: sync truncated segment: %w", err)
			}
			res.TornTail = true
			res.TruncatedBytes += int64(len(sc.tornChunk))
		}
		w.active = f
		w.activePath = seg.path
		w.activeStart = firstIndex
		w.activeSize = sc.good
		adopted = true
	}
	if !adopted {
		w.mu.Lock()
		err := w.createActiveLocked()
		w.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// writeQuarantine (re)writes one quarantine sidecar from the chunks.
func writeQuarantine(fsys FS, path string, chunks [][]byte) error {
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("wal: create quarantine sidecar: %w", err)
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return fmt.Errorf("wal: write quarantine sidecar: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync quarantine sidecar: %w", err)
	}
	return f.Close()
}

// Scan is the read-only twin of Open's recovery: it walks the segments
// of dir in order, passing every valid record to replay, and reports the
// same accounting — without truncating, quarantining, or creating
// anything. qtag-replay uses it to read a live (or crashed) WAL
// directory non-invasively.
func Scan(fsys FS, dir string, replay func(index uint64, payload []byte) error) (RecoverResult, error) {
	if fsys == nil {
		fsys = OS
	}
	var res RecoverResult
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return res, fmt.Errorf("wal: list segments: %w", err)
	}
	for i, seg := range segs {
		isLast := i == len(segs)-1
		data, err := fsys.ReadFile(seg.path)
		if err != nil {
			return res, fmt.Errorf("wal: read segment: %w", err)
		}
		res.Segments++
		firstIndex, herr := parseSegmentHeader(data)
		if herr != nil {
			if isLast && len(data) < SegmentHeaderSize {
				res.TornTail = true
				res.TruncatedBytes += int64(len(data))
				continue
			}
			res.Quarantined++
			res.QuarantinedBytes += int64(len(data))
			res.QuarantinedSpans = append(res.QuarantinedSpans, Span{seg.first, segmentEnd(segs, i)})
			continue
		}
		sc, err := scanSegment(data, firstIndex, 0, replay)
		if err != nil {
			return res, err
		}
		res.Records += sc.records
		res.Quarantined += len(sc.quarantined)
		for _, c := range sc.quarantined {
			res.QuarantinedBytes += int64(len(c))
		}
		res.QuarantinedSpans = append(res.QuarantinedSpans, sc.quarantinedSpans(sc.torn && !isLast, segmentEnd(segs, i))...)
		if sc.torn {
			if isLast {
				res.TornTail = true
				res.TruncatedBytes += int64(len(sc.tornChunk))
			} else {
				res.Quarantined++
				res.QuarantinedBytes += int64(len(sc.tornChunk))
			}
		}
	}
	return res, nil
}
