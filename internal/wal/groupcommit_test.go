package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func openGC(t *testing.T, opts Options) *WAL {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	opts.GroupCommit = true
	w, _, err := Open(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	var obsMu sync.Mutex
	observed := 0
	w := openGC(t, Options{
		Fsync: FsyncAlways,
		CommitObserver: func(records int, latency time.Duration) {
			obsMu.Lock()
			observed += records
			obsMu.Unlock()
			if records <= 0 || latency < 0 {
				t.Errorf("bad observation: records=%d latency=%v", records, latency)
			}
		},
	})
	defer w.Close()
	if !w.GroupCommitEnabled() {
		t.Fatal("group commit not enabled")
	}

	const (
		workers = 8
		each    = 40
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Append(fmt.Appendf(nil, "rec-%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := w.Appended(); got != workers*each {
		t.Fatalf("appended %d, want %d", got, workers*each)
	}
	if w.GroupCommits() == 0 || w.GroupCommits() > int64(workers*each) {
		t.Fatalf("implausible group commit count %d", w.GroupCommits())
	}
	obsMu.Lock()
	defer obsMu.Unlock()
	if observed != workers*each {
		t.Fatalf("observer saw %d records, want %d", observed, workers*each)
	}
}

// gate blocks every Sync of the files it wraps while held, so a test can
// park the committer inside an fsync and let callers queue behind it.
type gate struct {
	mu      sync.Mutex
	hold    chan struct{} // nil: Sync passes straight through
	entered chan struct{}
}

func (g *gate) wrap(f File) File { return &gatedFile{File: f, g: g} }

type gatedFile struct {
	File
	g *gate
}

func (f *gatedFile) Sync() error {
	f.g.mu.Lock()
	hold := f.g.hold
	f.g.mu.Unlock()
	if hold != nil {
		f.g.entered <- struct{}{}
		<-hold
	}
	return f.File.Sync()
}

// TestGroupCommitCapsGroupsAtMaxBatch: callers that queue behind an
// fsync in flight are committed together, at most groupCommitMaxBatch
// records to a group.
func TestGroupCommitCapsGroupsAtMaxBatch(t *testing.T) {
	g := &gate{entered: make(chan struct{}, 1)}
	var groups []int
	w := openGC(t, Options{
		Fsync:          FsyncAlways,
		FS:             &hookFS{FS: OS, wrap: g.wrap},
		CommitObserver: func(records int, _ time.Duration) { groups = append(groups, records) },
	})
	defer w.Close()

	hold := make(chan struct{})
	g.mu.Lock()
	g.hold = hold
	g.mu.Unlock()
	const queued = groupCommitMaxBatch + 44
	errs := make(chan error, queued+1)
	go func() { errs <- w.Append([]byte("first")) }()
	<-g.entered // the committer is inside the first group's fsync
	g.mu.Lock()
	g.hold = nil
	g.mu.Unlock()
	for i := 0; i < queued; i++ {
		go func(i int) { errs <- w.Append(fmt.Appendf(nil, "queued-%d", i)) }(i)
	}
	for w.GroupQueueDepth() < queued {
		time.Sleep(time.Millisecond)
	}
	close(hold)
	for i := 0; i < queued+1; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if fmt.Sprint(groups) != fmt.Sprint([]int{1, groupCommitMaxBatch, 44}) {
		t.Fatalf("commit groups %v, want [1 %d 44]", groups, groupCommitMaxBatch)
	}
}

func TestGroupCommitAppendBatchAndReplay(t *testing.T) {
	dir := t.TempDir()
	w := openGC(t, Options{Dir: dir, Fsync: FsyncOnBatch})
	if err := w.AppendBatch([][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var got []string
	w2, rec, err := Open(Options{Dir: dir}, func(index uint64, payload []byte) error {
		got = append(got, string(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.Records != 4 || len(got) != 4 {
		t.Fatalf("replayed %d records (%v), want 4", rec.Records, got)
	}
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replay order %v, want %v", got, want)
		}
	}
}

// TestGroupCommitAppendRecordsIsOneCommit: a request's records are one
// hand-off — one commit group of N records, one write — however many
// they are, including more than groupCommitMaxBatch; and they replay in
// order between the appends around them.
func TestGroupCommitAppendRecordsIsOneCommit(t *testing.T) {
	const big = groupCommitMaxBatch + 64
	dir := t.TempDir()
	var groups []int
	w := openGC(t, Options{
		Dir:            dir,
		Fsync:          FsyncAlways,
		CommitObserver: func(records int, _ time.Duration) { groups = append(groups, records) },
	})
	if err := w.Append([]byte("first")); err != nil {
		t.Fatal(err)
	}
	syncs := w.Syncs()
	if err := w.AppendRecords(payloads(big)); err != nil {
		t.Fatal(err)
	}
	if got := w.Syncs() - syncs; got != 1 {
		t.Fatalf("AppendRecords of %d cost %d fsyncs, want 1", big, got)
	}
	if err := w.AppendRecords(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("last")); err != nil {
		t.Fatal(err)
	}
	if gc := w.GroupCommits(); gc != 3 {
		t.Fatalf("%d group commits, want 3 (the empty call makes none)", gc)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 || groups[0] != 1 || groups[1] != big || groups[2] != 1 {
		t.Fatalf("commit groups %v, want [1 %d 1]", groups, big)
	}
	var got []string
	if _, err := Scan(nil, dir, func(_ uint64, payload []byte) error {
		got = append(got, string(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"first"}
	for _, p := range payloads(big) {
		want = append(want, string(p))
	}
	want = append(want, "last")
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replayed %d records out of order or incomplete:\n got %v\nwant %v", len(got), got, want)
	}
}

func TestGroupCommitCloseDrainsQueue(t *testing.T) {
	dir := t.TempDir()
	w := openGC(t, Options{Dir: dir, Fsync: FsyncAlways})
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = w.Append(fmt.Appendf(nil, "drain-%d", g))
		}(g)
	}
	wg.Wait() // all in-flight appends acked before Close below
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	acked := 0
	for _, err := range errs {
		if err == nil {
			acked++
		}
	}
	if err := w.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := w.AppendBatch([][]byte{[]byte("late")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append batch after close = %v, want ErrClosed", err)
	}
	// Every acked record must be on disk.
	n := 0
	w2, _, err := Open(Options{Dir: dir}, func(uint64, []byte) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if n != acked {
		t.Fatalf("recovered %d records, acked %d", n, acked)
	}
}

func TestGroupCommitOversizedFailsCallerOnly(t *testing.T) {
	w := openGC(t, Options{Fsync: FsyncAlways, MaxRecordBytes: 32})
	defer w.Close()
	big := make([]byte, 64)
	if err := w.Append(big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized append = %v, want ErrRecordTooLarge", err)
	}
	if err := w.AppendBatch([][]byte{[]byte("ok"), big}); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized batch = %v, want ErrRecordTooLarge", err)
	}
	if err := w.Append([]byte("fits")); err != nil {
		t.Fatalf("good append after oversized rejections: %v", err)
	}
	if got := w.Appended(); got != 1 {
		t.Fatalf("appended %d, want 1 (rejections must not reach the log)", got)
	}
}

func TestGroupQueueDepth(t *testing.T) {
	w := openGC(t, Options{Fsync: FsyncAlways})
	if d := w.GroupQueueDepth(); d != 0 {
		t.Fatalf("idle queue depth %d, want 0", d)
	}
	if err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if d := w.GroupQueueDepth(); d != 0 {
		t.Fatalf("closed queue depth %d, want 0", d)
	}
}

func TestGroupCommitDisabledAccessors(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.GroupCommitEnabled() {
		t.Fatal("group commit reported enabled without the option")
	}
	if w.GroupCommits() != 0 || w.GroupQueueDepth() != 0 {
		t.Fatal("group commit counters nonzero without the option")
	}
	if err := w.Append([]byte("direct")); err != nil {
		t.Fatal(err)
	}
}
