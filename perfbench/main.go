// Command perfbench is gocci's end-to-end benchmark. It generates each
// workload's source tree from a seed with internal/codegen, drives the
// shipped gocci and gocci-serve binaries from one process (one loopback
// HTTP client, closed loop), checks every output against references the
// generator knows, and prints one JSON result line.
//
//	perfbench --bin DIR --workload port-cold|resident-edit|check-cached \
//	    --seed N --seconds S --trace 0|1
//	perfbench --bin DIR --smoke
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics: stage self-times read from the
// program's own trace, and timings of each internal/ layer's public calls
// made from this package. README.md defines every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one workload run's shared state.
type env struct {
	root     string // checkout root
	bin      string // directory holding gocci and gocci-serve
	sp       *spawner
	work     string // scratch directory for this run
	seed     int64
	seconds  time.Duration
	trace    bool
	jobs     int
	rng      *rand.Rand
	size     int // tree size scale: 1 = full, smaller for smoke runs
	deadline time.Time

	attempted, failed int
	errs              int
	chunks            []float64 // reference chunk times, ms (probe.go)
	timings           []pending
	metrics           map[string]metric
	info              map[string]any
}

func (e *env) gocci() string { return filepath.Join(e.bin, "gocci") }
func (e *env) serve() string { return filepath.Join(e.bin, "gocci-serve") }

// op records one attempted operation and its outcome.
func (e *env) op(err error) bool {
	e.attempted++
	if err == nil {
		return true
	}
	e.failed++
	if e.errs < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
	}
	e.errs++
	return false
}

// set records one metric.
func (e *env) set(name, unit string, v float64) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

// running reports whether the measured window is still open.
func (e *env) running() bool { return time.Now().Before(e.deadline) }

// more reports whether a workload loop that has n samples of its main
// operation goes on: while the window is open, and past it until there are
// three samples, unless operations keep failing.
func (e *env) more(n int) bool { return e.running() || (n < 3 && e.failed < 20) }

// workloads maps each workload name to its driver function.
var workloads = map[string]func(*env) error{
	"port-cold":     portCold,
	"resident-edit": residentEdit,
	"check-cached":  checkCached,
}

func main() {
	bin := flag.String("bin", "", "directory holding the gocci and gocci-serve binaries")
	workload := flag.String("workload", "", "workload name: port-cold, resident-edit, or check-cached")
	seed := flag.Int64("seed", 1, "input generation seed")
	seconds := flag.Int("seconds", 10, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end metrics")
	smoke := flag.Bool("smoke", false, "run every workload at a tiny size, both modes, and check the metric set")
	spawnerMode := flag.Bool("spawner", false, "internal: run child processes for the harness (see procs.go)")
	flag.Parse()
	if *spawnerMode {
		if err := runSpawner(); err != nil {
			fatal(err)
		}
		return
	}
	root, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	if *bin == "" {
		fatal(fmt.Errorf("--bin is required"))
	}
	if *smoke {
		if err := runSmoke(root, *bin); err != nil {
			fatal(err)
		}
		return
	}
	drive, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	res, info, err := runWorkload(root, *bin, *workload, drive, *seed, time.Duration(*seconds)*time.Second, *trace == 1, 1)
	if err != nil {
		fatal(err)
	}
	printResult(res, info)
}

// runWorkload sets up a scratch directory, drives one workload, and
// assembles its result. size divides the tree sizes (smoke runs).
func runWorkload(root, bin, name string, drive func(*env) error, seed int64, seconds time.Duration, trace bool, size int) (result, map[string]any, error) {
	work := filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, nil, err
	}
	defer func() {
		// Flush the deletion so that its disk work does not land in the
		// next run's timings.
		os.RemoveAll(work)
		syscall.Sync()
	}()
	sp, err := startSpawner(work)
	if err != nil {
		return result{}, nil, err
	}
	defer sp.close()
	jobs := runtime.NumCPU()
	if jobs > 2 {
		jobs = 2
	}
	e := &env{root: root, bin: bin, sp: sp, work: work, seed: seed, seconds: seconds, trace: trace,
		jobs: jobs, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), size: size,
		metrics: map[string]metric{}, info: map[string]any{}}
	e.info["workload"] = name
	e.info["seed"] = seed
	e.info["trace"] = trace
	e.info["machine"] = machine(root, e)
	if err := drive(e); err != nil {
		// The workload could not go on (its set-up or reference output
		// failed): a failed run, reported as such.
		e.op(err)
	}
	e.finishTimings()
	if m, ok := e.metrics["setup_s"]; ok && trace {
		// A traced run reports per-layer metrics only.
		e.info["setup_s"] = m.Value
		delete(e.metrics, "setup_s")
	}
	if e.attempted > 0 {
		e.info["failed_ratio"] = float64(e.failed) / float64(e.attempted)
	}
	return result{Correct: e.failed == 0 && e.attempted > 0, Attempted: e.attempted, Failed: e.failed,
		Metrics: e.metrics}, e.info, nil
}

// printResult prints the run record (machine, corpus, informational
// figures) and then the result as the last stdout line.
func printResult(res result, info map[string]any) {
	rec, err := json.Marshal(map[string]any{"record": info})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(rec))
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// median returns the middle value of xs (mean of the two middles).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tail reports the p-quantile of xs into info when at least ten samples
// lie beyond it, with the sample count.
func tail(info map[string]any, name string, xs []float64, p float64) {
	if float64(len(xs))*(1-p) < 10 {
		return
	}
	info[name] = quantile(xs, p)
	info[name+"_samples"] = len(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
