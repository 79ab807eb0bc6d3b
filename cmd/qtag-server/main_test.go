package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"qtag/internal/collector"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("n1=http://a:1, n2=http://b:2 ,")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers["n1"] != "http://a:1" || peers["n2"] != "http://b:2" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"n1", "=http://a", "n1=", "n1=http://a,n1=http://b"} {
		if _, err := parsePeers(bad); err == nil {
			t.Fatalf("parsePeers(%q) accepted", bad)
		}
	}
	if empty, err := parsePeers(""); err != nil || len(empty) != 0 {
		t.Fatalf("empty flag parsed to %v, %v", empty, err)
	}
}

func TestParseLogLevel(t *testing.T) {
	if _, err := parseLogLevel("debug"); err != nil {
		t.Fatal(err)
	}
	if _, err := parseLogLevel("nonsense"); err == nil {
		t.Fatal("bad level accepted")
	}
}

// The boot handler must answer liveness 200 and readiness 503 the
// moment the socket binds, shed everything else with Retry-After, and
// the swap must atomically hand the same connections to the real stack.
func TestBootHandlerAndSwap(t *testing.T) {
	var swap handlerSwap
	swap.Set(bootHandler())
	srv := httptest.NewServer(&swap)
	defer srv.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if got := get("/healthz").StatusCode; got != http.StatusOK {
		t.Fatalf("/healthz during boot = %d, want 200", got)
	}
	if got := get("/readyz").StatusCode; got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during boot = %d, want 503", got)
	}
	resp := get("/v1/events")
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("ingest during boot = %d (Retry-After %q), want 503 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	swap.Set(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	if got := get("/v1/events").StatusCode; got != http.StatusTeapot {
		t.Fatalf("post-swap status = %d, want the real stack", got)
	}
}

// readGolden returns the lines of testdata/<name>.
func readGolden(t *testing.T, name string) []string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
}

var (
	helpFlag    = regexp.MustCompile(`^  -(\S+)`)
	helpDefault = regexp.MustCompile(`\(default (.*)\)$`)
	readmeRow   = regexp.MustCompile("^\\| `-([a-z-]+)` \\|")
)

// The testdata/*.golden files were captured from the binary of the
// commit before main() became collector.Open: `-h`, and for each of
// bench/workload.go's argv shapes a /metrics and a /healthz scrape. They
// pin what bench/ and operators lean on — flag names and defaults,
// metric family names, /healthz keys — and change only on purpose.
func TestFlagsMatchTheGoldenHelp(t *testing.T) {
	fs := flag.NewFlagSet("qtag-server", flag.ContinueOnError)
	bindFlags(fs, &options{cfg: collector.DefaultConfig()})
	var help bytes.Buffer
	fs.SetOutput(&help)
	fs.PrintDefaults()
	// One "name<TAB>default" line per flag, the default as -h prints it
	// (nothing for a zero value).
	var got []string
	for _, line := range strings.Split(help.String(), "\n") {
		if m := helpFlag.FindStringSubmatch(line); m != nil {
			got = append(got, m[1]+"\t")
		} else if m := helpDefault.FindStringSubmatch(line); m != nil {
			got[len(got)-1] += m[1]
		}
	}
	if want := readGolden(t, "flags.golden"); !slices.Equal(got, want) {
		t.Errorf("flag names and defaults moved:\n got %q\nwant %q", got, want)
	}

	// README's cmd/qtag-server table lists exactly the flags that exist.
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "`cmd/qtag-server` — ")
	if !ok {
		t.Fatal("README.md has no cmd/qtag-server flag table")
	}
	documented := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		if m := readmeRow.FindStringSubmatch(line); m != nil {
			documented[m[1]], inTable = true, true
		} else if inTable && !strings.HasPrefix(line, "|") {
			break
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !documented[f.Name] {
			t.Errorf("-%s is not in README's cmd/qtag-server flag table", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("README's cmd/qtag-server flag table lists -%s, which is not a flag", name)
	}
}

// flagRef is a flag name in a comment: "-wal-dir", "(-log-every)".
var flagRef = regexp.MustCompile(`(?:^|[\s(])-([a-z][a-z0-9-]*)`)

// Every collector.Config field comment that names a flag names one
// bindFlags defines, and every flag but the four main parses itself has
// a field that names it — so "no flag" in a comment is the truth, and a
// deleted flag cannot linger in the Config's documentation.
func TestConfigFieldsNameRealFlags(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "../../internal/collector/config.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]string{} // flag → the field whose comment names it
	ast.Inspect(file, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok || spec.Name.Name != "Config" {
			return true
		}
		for _, field := range spec.Type.(*ast.StructType).Fields.List {
			var text string
			for _, group := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if group != nil {
					text += group.Text()
				}
			}
			for _, m := range flagRef.FindAllStringSubmatch(text, -1) {
				named[m[1]] = field.Names[0].Name
			}
		}
		return false
	})
	if len(named) == 0 {
		t.Fatal("no collector.Config field names a flag")
	}

	fs := flag.NewFlagSet("qtag-server", flag.ContinueOnError)
	bindFlags(fs, &options{cfg: collector.DefaultConfig()})
	for name, field := range named {
		if fs.Lookup(name) == nil {
			t.Errorf("collector.Config.%s names -%s, which bindFlags does not define", field, name)
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		switch f.Name {
		case "addr", "log-level", "fsync", "peers":
			return
		}
		if named[f.Name] == "" {
			t.Errorf("-%s: no collector.Config field names it", f.Name)
		}
	})
}

func TestStackSurfaceMatchesTheGoldenScrapes(t *testing.T) {
	// The argv of bench/workload.go's serverArgs: the WAL on the ack path,
	// the async queue, and node a of the two-node ring.
	common := []string{"-addr", "127.0.0.1:0", "-log-level", "warn", "-log-every", "0", "-wal-segment-bytes", "1073741824"}
	syncWAL := []string{"-fsync", "batch", "-durable-sync", "-group-commit", "-admission", "-ingest-shards", "16", "-detect"}
	shapes := map[string][]string{
		"sync":    syncWAL,
		"async":   {"-queue-cap", "65536", "-detect"},
		"cluster": append(syncWAL[:len(syncWAL):len(syncWAL)], "-node-id", "a", "-peers", "b=http://127.0.0.1:1", "-handoff-dir", filepath.Join(t.TempDir(), "hints-0")),
	}
	for shape, extra := range shapes {
		t.Run(shape, func(t *testing.T) {
			args := append(append([]string{"-wal-dir", filepath.Join(t.TempDir(), "wal-0")}, common...), extra...)
			o, err := parseFlags(flag.NewFlagSet("qtag-server", flag.ContinueOnError), args)
			if err != nil {
				t.Fatalf("bench argv no longer parses: %v", err)
			}
			o.cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
			stack, err := collector.Open(o.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer stack.Close(context.Background())
			srv := httptest.NewServer(stack.Handler())
			defer srv.Close()
			scrape := func(path string) []byte {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
				}
				return body
			}

			var families []string
			for _, line := range strings.Split(string(scrape("/metrics")), "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
					families = append(families, f[2])
				}
			}
			slices.Sort(families)
			if want := readGolden(t, "metrics_"+shape+".golden"); !slices.Equal(families, want) {
				t.Errorf("/metrics families moved:\n got %q\nwant %q", families, want)
			}

			var health map[string]any
			if err := json.Unmarshal(scrape("/healthz"), &health); err != nil {
				t.Fatal(err)
			}
			keys := make([]string, 0, len(health))
			for k := range health {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			if want := readGolden(t, "healthz_"+shape+".golden"); !slices.Equal(keys, want) {
				t.Errorf("/healthz keys moved:\n got %q\nwant %q", keys, want)
			}
			scrape("/readyz")
		})
	}
}

// TestMain runs the test binary as qtag-server itself when
// QTAG_SERVER_MAIN is set, so a test can watch main's exit code.
func TestMain(m *testing.M) {
	if os.Getenv("QTAG_SERVER_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Flag combinations no stack can be built from, and flags that would be
// accepted but do nothing, are refused by parseFlags — main exits 2 on
// them before it binds the socket. -journal is gone: an old deployment's
// argv must fail to start, not run with no durability.
func TestParseFlagsRefusesBadConfigurations(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		names []string // flags the ErrConfig must name; nil for a parse error
	}{
		{[]string{"-admission=false", "-shed-pending", "100"}, []string{"-shed-pending", "-admission"}},
		{[]string{"-shed-pending", "100"}, []string{"-shed-pending", "-wal-dir"}},
		{[]string{"-disk-low-bytes", "1"}, []string{"-disk-low-bytes", "-wal-dir"}},
		{[]string{"-disk-shed-bytes", "1"}, []string{"-disk-shed-bytes", "-wal-dir"}},
		{[]string{"-disk-readonly-bytes", "1"}, []string{"-disk-readonly-bytes", "-wal-dir"}},
		{[]string{"-wal-dir", "wal", "-admission=false", "-disk-low-bytes", "1"}, []string{"-disk-low-bytes", "-admission"}},
		{[]string{"-durable-sync"}, []string{"-durable-sync", "-wal-dir"}},
		{[]string{"-journal", "beacons.jsonl"}, nil},
		{[]string{"-log-level", "nonsense"}, nil},
		{[]string{"-fsync", "sometimes"}, nil},
		{[]string{"-peers", "n1"}, nil},
		{[]string{"-no-such-flag"}, nil},
	} {
		fs := flag.NewFlagSet("qtag-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, err := parseFlags(fs, tc.args)
		if err == nil {
			t.Errorf("%v accepted", tc.args)
			continue
		}
		if tc.names != nil && !errors.Is(err, collector.ErrConfig) {
			t.Errorf("%v: %v, want a configuration error", tc.args, err)
		}
		for _, name := range tc.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%v: %v, want it to name %s", tc.args, err, name)
			}
		}

		// The binary itself: exit 2, before it would bind -addr.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
		cmd.Dir, cmd.Env = t.TempDir(), append(os.Environ(), "QTAG_SERVER_MAIN=1")
		out, err := cmd.CombinedOutput()
		cancel()
		if code := cmd.ProcessState.ExitCode(); code != 2 {
			t.Errorf("qtag-server %v: exit %d (%v), want 2\n%s", tc.args, code, err, out)
		}
	}
}
