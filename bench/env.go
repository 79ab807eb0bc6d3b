package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment is the provenance written into every result file: enough
// to tell whether two files may be compared at all.
type environment struct {
	GitCommit        string `json:"git_commit"`
	GoVersion        string `json:"go_version"`
	NumCPU           int    `json:"nproc"`
	GeneratorProcs   int    `json:"gomaxprocs_generator"`
	ServerGOMAXPROCS string `json:"gomaxprocs_servers"` // the servers inherit this environment; "default" = their nproc
	Kernel           string `json:"kernel"`
	WALFilesystem    string `json:"wal_dir_fs_type"`
	Transport        string `json:"transport"`
}

func environmentOf() environment {
	env := environment{
		GitCommit:        "unknown",
		GoVersion:        runtime.Version(),
		NumCPU:           runtime.NumCPU(),
		GeneratorProcs:   runtime.GOMAXPROCS(0),
		ServerGOMAXPROCS: "default",
		Kernel:           "unknown",
		Transport:        "loopback",
	}
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		env.ServerGOMAXPROCS = v
	}
	// The driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	if err := os.MkdirAll(filepath.Join(buildDir, "run"), 0o755); err == nil {
		env.WALFilesystem = fsType(filepath.Join(buildDir, "run"))
	}
	return env
}
