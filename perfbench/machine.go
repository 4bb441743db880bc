package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// machine describes where a result was measured, so that only figures
// from one machine and one source tree are compared.
func machine(root string, e *env) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	version := "unknown"
	if r, err := e.sp.run(root, e.gocci(), "--version"); err == nil {
		version = strings.TrimSpace(string(r.Stdout))
	}
	return map[string]any{
		"cpu":           cpu,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"jobs":          e.jobs,
		"gocci_version": version,
		"source_sha256": sourceDigest(root),
	}
}

// sourceDigest hashes the repository's Go sources and go.mod, standing in
// for a commit id where the checkout is not a git repository.
func sourceDigest(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00", rel)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// endToEnd lists the end-to-end metrics every workload reports, with units.
var endToEnd = map[string]string{
	"setup_s": "s", "sweep_ms": "ms", "edit_ms": "ms", "apply_ms": "ms", "rss_mb": "MB",
}

// runSmoke runs every workload at a tiny size in both modes and fails on a
// failed operation or on any missing, misnamed, unit-less or non-finite
// metric.
func runSmoke(root, bin string) error {
	names := sortedKeys(workloads)
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayerNames()
			}
			res, _, err := runWorkload(root, bin, name, workloads[name], 1, 2*time.Second, trace, 20)
			if err != nil {
				return fmt.Errorf("smoke %s trace=%v: %w", name, trace, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("smoke %s trace=%v: %d of %d operations failed", name, trace, res.Failed, res.Attempted)
			}
			for m, unit := range want {
				got, ok := res.Metrics[m]
				if !ok {
					return fmt.Errorf("smoke %s trace=%v: metric %s missing", name, trace, m)
				}
				if got.Unit == "" || got.Unit != unit {
					return fmt.Errorf("smoke %s trace=%v: metric %s has unit %q, want %q", name, trace, m, got.Unit, unit)
				}
				if got.Value != got.Value || got.Value > 1e300 || got.Value < -1e300 {
					return fmt.Errorf("smoke %s trace=%v: metric %s is not finite", name, trace, m)
				}
			}
			for m := range res.Metrics {
				if _, ok := want[m]; !ok {
					return fmt.Errorf("smoke %s trace=%v: unexpected metric %s", name, trace, m)
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: smoke %s trace=%v: %d metrics, %d operations ok\n", name, trace, len(res.Metrics), res.Attempted)
		}
	}
	fmt.Println(`{"smoke": "ok"}`)
	return nil
}
