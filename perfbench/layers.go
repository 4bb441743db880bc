package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	sempatch "repro"
	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/diff"
	"repro/internal/smpl"
)

// stages is the program's stage vocabulary (internal/obs).
var stages = []string{"worker", "file", "read", "hash", "prefilter", "parse", "segment",
	"cfg", "match", "check", "verify", "render", "cache-read", "cache-write"}

// timedLayers are the internal/ layer calls timed in-process, each
// reported as ns, bytes and allocs per call.
var timedLayers = []string{"smpl.parse_patch", "core.compile", "ctoken.lex", "cparse.parse",
	"cast.segment", "cfg.build", "index.prefilter", "core.run", "diff.unified",
	"cache.write", "cache.read", "analysis.sarif", "serve.run_handler",
	"serve.apply_handler", "batch.campaign"}

// layerCounts are the per-layer counts and ratios, with their units.
var layerCounts = map[string]string{
	"ctoken.tokens": "count", "cparse.files": "count", "cast.functions": "count",
	"cast.dup_function_ratio": "ratio", "index.pruned_ratio": "ratio",
	"index.wasted_candidate_ratio": "ratio", "cfg.graphs": "count", "core.matches": "count",
	"core.changed_ratio": "ratio", "diff.out_bytes": "B", "cache.hit_ratio": "ratio",
	"cache.bytes": "B", "analysis.findings": "count", "batch.unaccounted_ratio": "ratio",
	"runtime.gc_cycles": "count", "runtime.gc_cpu_fraction": "ratio", "runtime.alloc_bytes": "B",
}

// perLayerNames lists every per-layer metric with its unit.
func perLayerNames() map[string]string {
	out := map[string]string{"trace.overhead_ratio": "ratio"}
	for _, l := range timedLayers {
		out[l+".ns"] = "ns/op"
		out[l+".bytes"] = "B/op"
		out[l+".allocs"] = "allocs/op"
	}
	for k, u := range layerCounts {
		out[k] = u
	}
	for _, s := range stages {
		out["obs.self."+s+"_ns"] = "ns"
	}
	return out
}

// acc accumulates one layer's cost over a pass.
type acc struct {
	ns, bytes, allocs float64
	calls             int
}

// measure runs f, which makes calls layer calls, and adds its wall time
// and allocations. Allocation figures come from runtime.MemStats read
// around f, so f should hold one layer's calls only.
func (a *acc) measure(calls int, f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	f()
	d := time.Since(t)
	runtime.ReadMemStats(&m1)
	a.ns += float64(d)
	a.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
	a.allocs += float64(m1.Mallocs - m0.Mallocs)
	a.calls += calls
}

// layerInput is what one workload hands the in-process layer pass.
type layerInput struct {
	treeDir string
	files   []*genFile
	src     map[string]string // current source by Rel
	patches []patchFile
	opts    sempatch.Options // dialect of the patch set
	applies []string         // corpus files the apply handler is asked for
}

// layerRig holds what outlives one pass: the in-process server.
type layerRig struct {
	in      layerInput
	srv     *sempatch.Server
	handler http.Handler
}

func newLayerRig(in layerInput) (*layerRig, error) {
	pubs, err := parsePublic(in.patches)
	if err != nil {
		return nil, err
	}
	opts := in.opts
	opts.Workers = 1
	srv := sempatch.NewServer(opts)
	if _, err := srv.AddSession(sempatch.SessionConfig{ID: "bench", Root: in.treeDir, Patches: pubs, Options: opts}); err != nil {
		srv.Close()
		return nil, err
	}
	rig := &layerRig{in: in, srv: srv, handler: srv.Handler()}
	// The handlers are measured warm, as a resident daemon serves them.
	if err := rig.runHandler(); err != nil {
		rig.close()
		return nil, err
	}
	return rig, nil
}

func (r *layerRig) close() { r.srv.Close() }

func parsePublic(pfs []patchFile) ([]*sempatch.Patch, error) {
	out := make([]*sempatch.Patch, len(pfs))
	for i, pf := range pfs {
		p, err := sempatch.ParsePatch(pf.name, pf.text)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func (r *layerRig) runHandler() error {
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions/bench/run", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"summary"`) {
		return fmt.Errorf("in-process run handler: HTTP %d", rec.Code)
	}
	return nil
}

func (r *layerRig) applyHandler(rel string) error {
	body := fmt.Sprintf(`{"session":"bench","file":%q}`, rel)
	rec := httptest.NewRecorder()
	r.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/apply", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process apply handler: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return nil
}

// pass runs every timed layer once over the workload's tree and returns
// the per-call figures and counts. cacheDir must not exist yet.
func (r *layerRig) pass(cacheDir string) (map[string]float64, error) {
	in := r.in
	copts := core.Options{CPlusPlus: in.opts.CPlusPlus, Std: in.opts.Std, CUDA: in.opts.CUDA}
	popts := cparse.Options{CPlusPlus: copts.CPlusPlus, Std: copts.Std, CUDA: copts.CUDA}
	accs := map[string]*acc{}
	for _, l := range timedLayers {
		accs[l] = &acc{}
	}
	out := map[string]float64{}
	var err error

	// Patch front end.
	patches := make([]*smpl.Patch, len(in.patches))
	accs["smpl.parse_patch"].measure(len(in.patches), func() {
		for i, pf := range in.patches {
			if patches[i], err = smpl.ParsePatch(pf.name, pf.text); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	compiled := make([]*core.Compiled, len(patches))
	accs["core.compile"].measure(len(patches), func() {
		for i, p := range patches {
			compiled[i] = core.Compile(p)
		}
	})

	// Source front end.
	n := len(in.files)
	names := make([]string, n)
	cur := make([]string, n)
	for i, f := range in.files {
		names[i], cur[i] = f.Rel, in.src[f.Rel]
	}
	tokens := 0
	accs["ctoken.lex"].measure(n, func() {
		for i := range cur {
			lf, lerr := ctoken.Lex(names[i], cur[i], ctoken.Options{CUDAChevrons: copts.CUDA})
			if lerr != nil {
				err = lerr
				return
			}
			tokens += len(lf.Tokens)
		}
	})
	if err != nil {
		return nil, err
	}
	out["ctoken.tokens"] = float64(tokens)
	parsed := make([]*cast.File, n)
	accs["cparse.parse"].measure(n, func() {
		for i := range cur {
			if parsed[i], err = cparse.Parse(names[i], cur[i], popts); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out["cparse.files"] = float64(n)
	segs := make([]*cast.Segmentation, n)
	accs["cast.segment"].measure(n, func() {
		for i := range parsed {
			segs[i] = cast.SegmentFile(parsed[i])
		}
	})
	var fns []*cast.FuncDef
	seen := map[string]int{}
	for _, s := range segs {
		if s == nil {
			continue
		}
		for k := range s.Funcs {
			fns = append(fns, s.Funcs[k].Fn)
			seen[s.Funcs[k].Identity()]++
		}
	}
	out["cast.functions"] = float64(len(fns))
	out["cast.dup_function_ratio"] = dupShare(seen, len(fns))
	accs["cfg.build"].measure(len(fns), func() {
		for _, fd := range fns {
			cfg.Build(fd)
		}
	})
	out["cfg.graphs"] = float64(len(fns))

	// The campaign, patch-major: prefilter, match and edit, re-parse.
	orig := append([]string(nil), cur...)
	var findings []analysis.Finding
	type rec struct {
		key, hash string
		r         *cache.Record
	}
	var recs []rec
	pairs, pruned, candidates, wasted, runs, changedRuns, matches := 0, 0, 0, 0, 0, 0, 0
	reparse := &acc{}
	for pi, c := range compiled {
		flt := c.Prefilter.ForDefines(nil)
		cand := make([]bool, n)
		accs["index.prefilter"].measure(n, func() {
			for i := range cur {
				cand[i] = flt.MayMatch(cur[i])
			}
		})
		results := make([]*core.Result, n)
		k := 0
		for i := range cand {
			pairs++
			if cand[i] {
				k++
			} else {
				pruned++
			}
		}
		accs["core.run"].measure(k, func() {
			for i := range cur {
				if !cand[i] {
					continue
				}
				eng := core.NewCompiled(c, copts)
				if results[i], err = eng.RunParsed([]core.ParsedFile{{Name: names[i], Src: cur[i], File: parsed[i]}}); err != nil {
					err = fmt.Errorf("%s on %s: %w", patches[pi].Name, names[i], err)
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
		key := cache.ResultKey(patches[pi].Src, "perfbench")
		var changed []int
		for i, res := range results {
			if res == nil {
				continue
			}
			candidates++
			runs++
			m := 0
			for _, v := range res.MatchCount {
				m += v
			}
			matches += m
			if m == 0 {
				wasted++
			}
			findings = append(findings, res.Findings...)
			o := res.Outputs[names[i]]
			rc := &cache.Record{MatchCount: res.MatchCount}
			if o != cur[i] {
				changedRuns++
				changed = append(changed, i)
				rc.Changed, rc.Output, rc.Sum = true, o, cache.HashString(o)
			}
			recs = append(recs, rec{key, cache.HashString(cur[i]), rc})
			cur[i] = o
		}
		reparse.measure(len(changed), func() {
			for _, i := range changed {
				if parsed[i], err = cparse.Parse(names[i], cur[i], popts); err != nil {
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	p := accs["cparse.parse"]
	p.ns, p.bytes, p.allocs, p.calls = p.ns+reparse.ns, p.bytes+reparse.bytes, p.allocs+reparse.allocs, p.calls+reparse.calls
	out["index.pruned_ratio"] = ratio(pruned, pairs)
	out["index.wasted_candidate_ratio"] = ratio(wasted, candidates)
	out["core.matches"] = float64(matches)
	out["core.changed_ratio"] = ratio(changedRuns, runs)

	diffBytes := 0
	nd := 0
	for i := range cur {
		if cur[i] != orig[i] {
			nd++
		}
	}
	accs["diff.unified"].measure(nd, func() {
		for i := range cur {
			if cur[i] != orig[i] {
				diffBytes += len(diff.Unified("a/"+names[i], "b/"+names[i], orig[i], cur[i]))
			}
		}
	})
	out["diff.out_bytes"] = float64(diffBytes)

	// Persistent cache: write every outcome, then read it back.
	dc, err := cache.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	accs["cache.write"].measure(len(recs), func() {
		for _, rc := range recs {
			if err = dc.PutResult(rc.key, rc.hash, rc.r); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	hits := 0
	accs["cache.read"].measure(len(recs), func() {
		for _, rc := range recs {
			if _, ok := dc.Result(rc.key, rc.hash); ok {
				hits++
			}
		}
	})
	out["cache.hit_ratio"] = ratio(hits, len(recs))
	out["cache.bytes"] = float64(dirBytes(cacheDir))

	analysis.Sort(findings)
	accs["analysis.sarif"].measure(1, func() {
		err = analysis.WriteSarif(io.Discard, "perfbench", findings)
	})
	if err != nil {
		return nil, err
	}
	out["analysis.findings"] = float64(len(findings))

	// Serve handlers, in process, no socket.
	accs["serve.run_handler"].measure(1, func() { err = r.runHandler() })
	if err != nil {
		return nil, err
	}
	accs["serve.apply_handler"].measure(len(in.applies), func() {
		for _, rel := range in.applies {
			if err = r.applyHandler(rel); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}

	// The whole campaign through the public API, single worker.
	pubs, err := parsePublic(in.patches)
	if err != nil {
		return nil, err
	}
	opts := in.opts
	opts.Workers = 1
	camp := sempatch.NewCampaign(pubs, opts)
	files := make([]sempatch.File, n)
	for i := range orig {
		files[i] = sempatch.File{Name: names[i], Src: orig[i]}
	}
	gc0 := gcSample()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	accs["batch.campaign"].measure(1, func() {
		_, err = camp.ApplyAllFunc(files, func(fr sempatch.CampaignFileResult) error { return fr.Err })
	})
	runtime.ReadMemStats(&ms1)
	gc1 := gcSample()
	if err != nil {
		return nil, err
	}
	out["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	out["runtime.alloc_bytes"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	out["runtime.gc_cpu_fraction"] = 0
	if d := gc1.total - gc0.total; d > 0 {
		out["runtime.gc_cpu_fraction"] = (gc1.gc - gc0.gc) / d
	}
	covered := 0.0
	for _, l := range []string{"cparse.parse", "index.prefilter", "cast.segment", "core.run", "diff.unified"} {
		covered += accs[l].ns
	}
	wall := accs["batch.campaign"].ns
	out["batch.unaccounted_ratio"] = (wall - covered) / wall

	for l, a := range accs {
		if a.calls == 0 {
			// The tree gave this layer nothing to do (no diff on a
			// match-only tree): report no cost rather than loop overhead.
			out[l+".ns"], out[l+".bytes"], out[l+".allocs"] = 0, 0, 0
			continue
		}
		c := float64(a.calls)
		out[l+".ns"] = a.ns / c
		out[l+".bytes"] = a.bytes / c
		out[l+".allocs"] = a.allocs / c
	}
	return out, nil
}

// gcCPU is a runtime/metrics sample of cumulative CPU seconds.
type gcCPU struct{ gc, total float64 }

func gcSample() gcCPU {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	var g gcCPU
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		g.total = s[1].Value.Float64()
	}
	return g
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// dirBytes totals the sizes of the regular files below dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, ierr := d.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// selfTimes reads a Chrome trace-event JSON document and returns each
// stage's self time (span duration minus the spans nested in it on the
// same track), summed over tracks, in ns.
func selfTimes(doc []byte) (map[string]float64, error) {
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(bytes.TrimSpace(doc), &tr); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	type span struct {
		name            string
		start, end, sub float64
	}
	byTid := map[int][]*span{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		byTid[ev.Tid] = append(byTid[ev.Tid], &span{name: ev.Name, start: ev.Ts, end: ev.Ts + ev.Dur})
	}
	self := map[string]float64{}
	for _, spans := range byTid {
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		var stack []*span
		for _, s := range spans {
			for len(stack) > 0 && stack[len(stack)-1].end <= s.start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				stack[len(stack)-1].sub += s.end - s.start
			}
			stack = append(stack, s)
		}
		for _, s := range spans {
			self[s.name] += (s.end - s.start - s.sub) * 1e3 // µs → ns
		}
	}
	return self, nil
}

// tracedRun is the --trace 1 body shared by every workload: for the first
// half of the window it alternates the workload's whole-tree pass with the
// program's tracing on and off (stage self-times from the traced passes,
// overhead from the pair), then it times the in-process layer calls over
// the same tree until the window closes.
func (e *env) tracedRun(sweepOp func(traced bool) (time.Duration, []byte, error), in func() layerInput) error {
	half := time.Now().Add(time.Until(e.deadline) / 2)
	var on, off []float64
	self := map[string][]float64{}
	fails := 0
	for i := 0; time.Now().Before(half) || len(on) < 2 || len(off) < 2; i++ {
		traced := i%2 == 0
		wall, doc, err := sweepOp(traced)
		if err == nil && traced {
			var st map[string]float64
			if st, err = selfTimes(doc); err == nil {
				for _, s := range stages {
					self[s] = append(self[s], st[s])
				}
			}
		}
		if !e.op(err) {
			// The loop needs two passes of each kind; stop if they
			// cannot be had.
			if fails++; fails > 10 {
				return fmt.Errorf("traced passes keep failing")
			}
			continue
		}
		if traced {
			on = append(on, ms(wall))
		} else {
			off = append(off, ms(wall))
		}
	}
	e.set("trace.overhead_ratio", "ratio", median(on)/median(off))
	for _, s := range stages {
		e.set("obs.self."+s+"_ns", "ns", median(self[s]))
	}

	rig, err := newLayerRig(in())
	if !e.op(err) {
		return nil
	}
	defer rig.close()
	figs := map[string][]float64{}
	for k := 0; k == 0 || e.running(); k++ {
		out, err := rig.pass(filepath.Join(e.work, fmt.Sprintf("layer-cache-%d", k)))
		if !e.op(err) {
			continue
		}
		for name, v := range out {
			figs[name] = append(figs[name], v)
		}
	}
	units := perLayerNames()
	for name, vs := range figs {
		e.set(name, units[name], median(vs))
	}
	e.info["layer_passes"] = len(figs["batch.campaign.ns"])
	return nil
}
