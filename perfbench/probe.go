package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"time"
)

// The machines this runs on change speed by up to 2x over seconds to
// minutes (a busy sibling hyperthread or a neighbour's load), and every
// wall time of a run moves with them. So a run interleaves the workload's
// operations with a reference workload that is the same on every run and
// runs none of the code under test: go/parser (frozen with the toolchain)
// parsing a fixed generated Go file on as many goroutines as the program
// runs workers, a front end with the same kind of allocation and pointer
// traffic as gocci's. About a quarter of the window goes to it. A timing
// is reported at the reference speed: its median times probeRef over the
// median reference chunk of the same run. The raw medians and the chunk
// median stay in the run record. (A one-goroutine reference for the
// one-thread operations tracked them worse than this one.)

// probeRef is the nominal wall time of one reference chunk.
const probeRef = 7 * time.Millisecond

// probeSrc is the fixed reference input.
var probeSrc = genProbeSource()

func genProbeSource() string {
	var sb strings.Builder
	sb.WriteString("package probe\n\n")
	for f := 0; f < 160; f++ {
		fmt.Fprintf(&sb, "func kernel%d(n int, a, b []float64) float64 {\n\ts := 0.0\n", f)
		fmt.Fprintf(&sb, "\tfor i := 0; i < n; i++ {\n\t\tif a[i] > %d.5 {\n\t\t\ts += a[i] * b[i]\n\t\t} else {\n\t\t\ts -= b[(i+%d)%%n]\n\t\t}\n\t}\n", f%7, f%5+1)
		fmt.Fprintf(&sb, "\tm := map[string]int{\"k%d\": %d, \"j\": len(a)}\n\treturn s + float64(m[\"j\"])\n}\n\n", f, f)
	}
	return sb.String()
}

// probeChunk parses probeSrc once on each of jobs goroutines at once and
// returns the wall time.
func probeChunk(jobs int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := parser.ParseFile(token.NewFileSet(), "probe.go", probeSrc, 0); err != nil {
				panic(err) // fixed input: a parse error is a bug here
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// calibrate runs reference chunks for about d, at least one.
func (e *env) calibrate(d time.Duration) {
	start := time.Now()
	for {
		e.chunks = append(e.chunks, ms(probeChunk(e.jobs)))
		if time.Since(start) >= d {
			return
		}
	}
}

// after runs reference chunks for a third of an operation's wall time,
// so that about a quarter of the window is reference work.
func (e *env) after(wall time.Duration) { e.calibrate(wall / 3) }

// pending is one timing metric, reported once the run's reference speed
// is known.
type pending struct {
	name, unit string
	scale      float64 // unit per ms
	raw        []float64
}

// report queues a timing metric given as ms samples.
func (e *env) report(name, unit string, scale float64, raw []float64) {
	e.timings = append(e.timings, pending{name, unit, scale, raw})
}

// finishTimings sets every queued timing at the reference speed.
func (e *env) finishTimings() {
	ref := median(e.chunks)
	e.info["reference_chunk_ms"] = ref
	e.info["reference_chunks"] = len(e.chunks)
	if ref == 0 {
		ref = ms(probeRef) // no operation ran: report raw
	}
	for _, p := range e.timings {
		raw := median(p.raw)
		e.set(p.name, p.unit, raw*p.scale*ms(probeRef)/ref)
		e.info[p.name+"_raw"] = raw * p.scale
		e.info[p.name+"_samples"] = len(p.raw)
	}
}
