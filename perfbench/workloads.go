package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	sempatch "repro"
	"repro/internal/codegen"
	"repro/internal/cparse"
	"repro/internal/hpc"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// Tree sizes at full scale. A port tree of 200 files keeps one cold port
// near a second on two cores; the check tree is larger so that the warm
// check is not dominated by process start (three times the 120 distinct
// file sizes genTree cycles through).
const (
	portFiles  = 200
	checkFiles = 360
)

// patchFile is one semantic patch the harness writes for the program.
type patchFile struct{ name, text string }

// portPatches is the port set: the shipped hipify campaign's members in
// order, then the paper's L1 LIKWID instrumentation patch.
func portPatches() ([]patchFile, error) {
	c, ok := hpc.ByName("hipify")
	if !ok {
		return nil, fmt.Errorf("no hipify campaign")
	}
	var out []patchFile
	for _, n := range c.PatchNames() {
		out = append(out, patchFile{n, c.PatchText(n)})
	}
	l1, ok := patchlib.ByID("L1")
	if !ok {
		return nil, fmt.Errorf("no L1 patch")
	}
	return append(out, patchFile{"l1.cocci", l1.Patch}), nil
}

// checkPatchFiles is the hpc-checks campaign's member set.
func checkPatchFiles() []patchFile {
	c, _ := hpc.ByName("hpc-checks")
	var out []patchFile
	for _, n := range c.PatchNames() {
		out = append(out, patchFile{n, c.PatchText(n)})
	}
	return out
}

// writePatches writes pfs into dir and returns their paths.
func writePatches(dir string, pfs []patchFile) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, pf := range pfs {
		p := filepath.Join(dir, pf.name)
		if err := os.WriteFile(p, []byte(pf.text), 0o644); err != nil {
			return nil, err
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// campaignOpts is a shipped campaign's dialect as public options.
func campaignOpts(name string) sempatch.Options {
	c, _ := hpc.ByName(name)
	return c.Options(sempatch.Options{})
}

// prepare generates a tree into the work directory, records its corpus
// descriptor, and returns the tree and its directory.
func (e *env) prepare(n int, plant bool, pfs []patchFile, opts sempatch.Options) (*tree, string, error) {
	t := genTree(e.seed, n, plant)
	dir := filepath.Join(e.work, "tree")
	if err := t.write(dir); err != nil {
		return nil, "", err
	}
	var patches []*smpl.Patch
	for _, pf := range pfs {
		p, err := smpl.ParsePatch(pf.name, pf.text)
		if err != nil {
			return nil, "", err
		}
		patches = append(patches, p)
	}
	d, err := describe(t, patches, cparse.Options{CPlusPlus: opts.CPlusPlus, Std: opts.Std, CUDA: opts.CUDA})
	if err != nil {
		return nil, "", err
	}
	e.info["corpus"] = d
	return t, dir, nil
}

// sources maps each file's Rel to its generated text.
func sources(t *tree) map[string]string {
	m := make(map[string]string, len(t.Files))
	for _, f := range t.Files {
		m[f.Rel] = f.Src
	}
	return m
}

// exitErr turns a finished process into an error unless it exited want.
func exitErr(what string, r procResult, err error, want int) error {
	if err != nil {
		return err
	}
	if r.Exit != want {
		return fmt.Errorf("%s: exit %d, want %d: %s", what, r.Exit, want, lastLine(r.Stderr))
	}
	return nil
}

func lastLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// setupRuns times k launches of a process that becomes ready and exits,
// and records the median as setup_s.
func (e *env) setupRuns(k int, launch func() (time.Duration, error)) {
	var xs []float64
	for i := 0; i < k; i++ {
		d, err := launch()
		if e.op(err) {
			xs = append(xs, ms(d))
		}
		e.after(d)
	}
	e.report("setup_s", "s", 1e-3, xs)
}

// inline is one agent-loop request: an inline patch, a snippet, and the
// snippet's reference check.
type inline struct {
	patch, name, src string
	check            func(out string) error
}

// newInline generates the k-th inline request: alternately the L1
// instrumentation patch over an OpenMP snippet and the hipify launch patch
// over a CUDA snippet, each with distinct content.
func newInline(r *rand.Rand, k int, pfs []patchFile) inline {
	tag := "s" + strconv.Itoa(k)
	cfg := codegen.Config{Funcs: 1 + r.Intn(3), StmtsPerFunc: 1 + r.Intn(3), Seed: r.Int63()}
	if k%2 == 0 {
		src := fnName.ReplaceAllString(codegen.OpenMP(cfg), "${1}_${2}_"+tag)
		f := &genFile{Rel: tag + ".c", Shape: "openmp", Regions: cfg.Funcs}
		return inline{patch: patchText(pfs, "l1.cocci"), name: f.Rel, src: src,
			check: func(out string) error { return checkPorted(f, out) }}
	}
	src := fnName.ReplaceAllString(codegen.CUDA(cfg), "${1}_${2}_"+tag)
	want := cfg.Funcs * cfg.StmtsPerFunc
	return inline{patch: patchText(pfs, "hipify-launch.cocci"), name: tag + ".cu", src: src,
		check: func(out string) error {
			if n := len(hipLaunch.FindAllStringIndex(out, -1)); n != want || strings.Contains(out, "<<<") {
				return fmt.Errorf("%s: %d hipLaunchKernelGGL launches, generated %d", tag, n, want)
			}
			return nil
		}}
}

func patchText(pfs []patchFile, name string) string {
	for _, pf := range pfs {
		if pf.name == name {
			return pf.text
		}
	}
	return ""
}

// portCold: each sweep is one cold `gocci -r --campaign hipify L1` process
// over the whole tree, with no cache. The edit op edits one function of one
// file and re-ports that file's directory (an eighth of the tree) in a fresh
// process; the apply op is one inline patch over one snippet in a fresh
// process.
func portCold(e *env) error {
	pfs, err := portPatches()
	if err != nil {
		return err
	}
	n := portFiles / e.size
	t, dir, err := e.prepare(n, false, pfs, campaignOpts("hipify"))
	if err != nil {
		return err
	}
	src := sources(t)
	ppaths, err := writePatches(filepath.Join(e.work, "patches"), pfs[len(pfs)-1:])
	if err != nil {
		return err
	}
	l1 := ppaths[0]
	empty := filepath.Join(e.work, "empty")
	scratch := filepath.Join(e.work, "one")
	for _, d := range []string{empty, scratch} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	j := strconv.Itoa(e.jobs)
	e.setupRuns(21, func() (time.Duration, error) {
		r, err := e.sp.run(empty, e.gocci(), "-j", j, "-r", "--campaign", "hipify", l1, ".")
		return r.Wall, exitErr("port setup", r, err, 0)
	})

	var ref []byte
	var refDiffs map[string]string // the verified sweep's diffs, by Rel
	sweepOp := func(extra ...string) (procResult, error) {
		args := append([]string{"-j", j, "-r", "--campaign", "hipify"}, extra...)
		r, err := e.sp.run(dir, e.gocci(), append(args, l1, ".")...)
		if err := exitErr("port", r, err, 0); err != nil {
			return r, err
		}
		if ref != nil {
			if !bytes.Equal(r.Stdout, ref) {
				return r, fmt.Errorf("port: output differs from the verified first sweep")
			}
			return r, nil
		}
		diffs, err := splitDiffs(string(r.Stdout))
		if err != nil {
			return r, err
		}
		diffs = trimDot(diffs)
		if err := checkPortDiffs(t, src, diffs); err != nil {
			return r, err
		}
		ref, refDiffs = r.Stdout, diffs
		return r, nil
	}
	e.deadline = time.Now().Add(e.seconds)
	if e.trace {
		tracePath := filepath.Join(e.work, "trace.json")
		return e.tracedRun(func(traced bool) (time.Duration, []byte, error) {
			if !traced {
				r, err := sweepOp()
				return r.Wall, nil, err
			}
			r, err := sweepOp("--trace", tracePath)
			if err != nil {
				return 0, nil, err
			}
			doc, err := os.ReadFile(tracePath)
			return r.Wall, doc, err
		}, func() layerInput {
			return layerInput{treeDir: dir, files: t.Files, src: src, patches: pfs,
				opts: campaignOpts("hipify"), applies: pickFiles(e.rng, t, 16)}
		})
	}

	var sweeps, edits, applies, rss []float64
	edited := newPicker(t, e.rng)
	stamp := 0
	for e.more(len(sweeps)) {
		r, err := sweepOp()
		if e.op(err) {
			sweeps = append(sweeps, ms(r.Wall))
			rss = append(rss, r.RSSMB)
		}
		e.after(r.Wall)
		for k := 0; k < 3; k++ {
			stamp++
			f := edited.next()
			text := editFunction(src[f.Rel], e.rng.Intn(16), stamp)
			// A fresh copy of the file's directory per edit: the tree
			// itself stays as the verified sweep saw it.
			base := filepath.Join(scratch, strconv.Itoa(stamp))
			sub := filepath.Dir(f.Rel)
			var members []*genFile
			for _, g := range t.Files {
				if filepath.Dir(g.Rel) != sub {
					continue
				}
				members = append(members, g)
				body := src[g.Rel]
				if g == f {
					body = text
				}
				p := filepath.Join(base, g.Rel)
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					return err
				}
				if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
					return err
				}
			}
			r, err := e.sp.run(base, e.gocci(), "-j", j, "-r", "--campaign", "hipify", l1, sub)
			if err = exitErr("port one directory", r, err, 0); err == nil {
				err = checkEditedDir(r.Stdout, members, f, text, refDiffs)
			}
			if e.op(err) {
				edits = append(edits, ms(r.Wall))
			}
			e.after(r.Wall)

			in := newInline(e.rng, stamp, pfs)
			if err := os.WriteFile(filepath.Join(scratch, "inline.cocci"), []byte(in.patch), 0o644); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(scratch, in.name), []byte(in.src), 0o644); err != nil {
				return err
			}
			r, err = e.sp.run(scratch, e.gocci(), "--cxx", "11", "--cuda", "--sp-file", "inline.cocci", in.name)
			if err = exitErr("inline", r, err, 0); err == nil {
				var out string
				if out, err = applyDiff(in.src, string(r.Stdout)); err == nil {
					err = in.check(out)
				}
			}
			if e.op(err) {
				applies = append(applies, ms(r.Wall))
			}
			e.after(r.Wall)
		}
	}
	e.report("sweep_ms", "ms", 1, sweeps)
	e.report("edit_ms", "ms", 1, edits)
	e.report("apply_ms", "ms", 1, applies)
	e.set("rss_mb", "MB", median(rss))
	if len(sweeps) > 0 {
		e.info["cold_files_per_s"] = float64(n) / (median(sweeps) / 1000)
	}
	e.info["cold_peak_rss_mb"] = median(rss)
	return nil
}

// checkEditedDir checks the port of one directory after an edit of f: f's
// diff applies to its edited text and passes the references, and every
// other file's diff equals the verified whole-tree sweep's.
func checkEditedDir(stdout []byte, members []*genFile, f *genFile, text string, ref map[string]string) error {
	diffs, err := splitDiffs(string(stdout))
	if err != nil {
		return err
	}
	if len(diffs) > len(members) {
		return fmt.Errorf("port of %s: %d diffs for %d files", filepath.Dir(f.Rel), len(diffs), len(members))
	}
	for _, g := range members {
		d := diffs[g.Rel]
		if g != f {
			if hunks(d) != hunks(ref[g.Rel]) {
				return fmt.Errorf("port of %s: %s differs from the whole-tree port", filepath.Dir(f.Rel), g.Rel)
			}
			continue
		}
		out, err := applyDiff(text, d)
		if err != nil {
			return fmt.Errorf("%s: %w", g.Rel, err)
		}
		if err := checkPorted(g, out); err != nil {
			return err
		}
	}
	return nil
}

// trimDot drops a leading "./" from diff keys (the CLI labels files by the
// path it walked from ".").
func trimDot(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[strings.TrimPrefix(k, "./")] = v
	}
	return out
}

// picker walks the tree's files shape by shape, a random file of each: an
// edit of a CUDA file costs twice what an edit of another shape does, so
// a random pick would let the shape mix, and with it the median, drift
// from run to run.
type picker struct {
	byShape map[string][]*genFile
	r       *rand.Rand
	k       int
}

func newPicker(t *tree, r *rand.Rand) *picker {
	p := &picker{byShape: map[string][]*genFile{}, r: r}
	for _, f := range t.Files {
		p.byShape[f.Shape] = append(p.byShape[f.Shape], f)
	}
	return p
}

// next returns a random file of the next shape in portShapes order.
func (p *picker) next() *genFile {
	fs := p.byShape[portShapes[p.k%len(portShapes)]]
	p.k++
	return fs[p.r.Intn(len(fs))]
}

// pickFiles draws k corpus files for apply requests.
func pickFiles(r *rand.Rand, t *tree, k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = t.Files[r.Intn(len(t.Files))].Rel
	}
	return out
}

// residentEdit: one gocci-serve session with the port set over the port
// tree of the same seed. Rounds of a warm sweep, an edit of one function of
// one file followed by a sweep, then /v1/apply requests (three in four name
// a corpus file, one in four sends an inline patch and snippet).
func residentEdit(e *env) error {
	pfs, err := portPatches()
	if err != nil {
		return err
	}
	n := portFiles / e.size
	t, dir, err := e.prepare(n, false, pfs, campaignOpts("hipify"))
	if err != nil {
		return err
	}
	cur := sources(t)
	ppaths, err := writePatches(filepath.Join(e.work, "patches"), pfs)
	if err != nil {
		return err
	}
	j := strconv.Itoa(e.jobs)

	// Reference: the cold CLI port's diffs over the same tree, themselves
	// checked against the generator's references.
	r, err := e.sp.run(dir, e.gocci(), "-j", j, "-r", "--campaign", "hipify", ppaths[len(ppaths)-1], ".")
	if err := exitErr("reference port", r, err, 0); err != nil {
		return err
	}
	cliDiffs, err := splitDiffs(string(r.Stdout))
	if err != nil {
		return err
	}
	cliDiffs = trimDot(cliDiffs)
	if err := checkPortDiffs(t, cur, cliDiffs); err != nil {
		return fmt.Errorf("reference port: %w", err)
	}

	args := append([]string{"--root", dir, "-j", j, "--cxx", "11", "--cuda"}, ppaths...)
	rel := func(name string) string {
		if r, err := filepath.Rel(dir, name); err == nil && filepath.IsAbs(name) {
			return filepath.ToSlash(r)
		}
		return strings.TrimPrefix(filepath.ToSlash(name), "./")
	}
	diffs := map[string]string{} // current per-file diffs, by Rel
	var d *daemon
	var setups []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		dd, err := startDaemon(dir, e.serve(), args...)
		if !e.op(err) {
			continue
		}
		sw, err := dd.sweep("default")
		wall := time.Since(start)
		if err == nil {
			err = firstSweepMatches(sw, n, cliDiffs, rel)
		}
		ok := e.op(err)
		if ok {
			setups = append(setups, ms(wall))
		}
		e.after(wall)
		if !ok || i < 4 {
			dd.stop()
			continue
		}
		for name, df := range sw.Diffs {
			diffs[rel(name)] = df
		}
		d = dd
	}
	e.report("setup_s", "s", 1e-3, setups)
	if d == nil {
		return fmt.Errorf("no daemon came up with a correct first sweep")
	}
	defer func() {
		if d != nil {
			d.stop()
		}
	}()

	// A sweep must report every file and match the current diffs; edited
	// names the one file whose diff is re-checked against the references.
	checkSweep := func(sw sweep, edited *genFile, parsed int) error {
		if sw.Files != n || len(sw.Diffs) != n {
			return fmt.Errorf("sweep: %d files reported, %d generated", sw.Files, n)
		}
		if sw.Parsed != parsed {
			return fmt.Errorf("sweep: parsed %d files, %d edited", sw.Parsed, parsed)
		}
		for name, df := range sw.Diffs {
			k := rel(name)
			if edited != nil && k == edited.Rel {
				out, err := applyDiff(cur[k], df)
				if err != nil {
					return fmt.Errorf("%s: %w", k, err)
				}
				if err := checkPorted(edited, out); err != nil {
					return err
				}
				diffs[k] = df
				continue
			}
			if df != diffs[k] {
				return fmt.Errorf("sweep: %s diff changed without an edit", k)
			}
		}
		return nil
	}

	e.deadline = time.Now().Add(e.seconds)
	if e.trace {
		return e.tracedRun(func(traced bool) (time.Duration, []byte, error) {
			start := time.Now()
			sw, err := d.sweep("default")
			if err == nil {
				err = checkSweep(sw, nil, 0)
			}
			if err != nil || !traced {
				return time.Since(start), nil, err
			}
			doc, err := d.get("/v1/sessions/default/trace")
			return time.Since(start), doc, err
		}, func() layerInput {
			return layerInput{treeDir: dir, files: t.Files, src: cur, patches: pfs,
				opts: campaignOpts("hipify"), applies: pickFiles(e.rng, t, 16)}
		})
	}

	edited, applied := newPicker(t, e.rng), newPicker(t, e.rng)
	var warm, edits, applies, fileApplies, inlineApplies []float64
	// The daemon's footprint is read after the first warm sweep, when the
	// session holds the whole tree warm and nothing else: its RSS keeps
	// growing with every edited version and inline patch the caches keep,
	// so a later reading depends on how many rounds the run got through.
	// The last reading is kept in the record.
	var rss, rssEnd float64
	stamp := 0
	for e.more(len(warm)) {
		sw, err := d.sweep("default")
		if err == nil {
			err = checkSweep(sw, nil, 0)
		}
		if e.op(err) {
			warm = append(warm, ms(sw.Wall))
		}
		e.after(sw.Wall)
		if m, err := d.rssMB(); err == nil {
			if rss == 0 {
				rss = m
			}
			rssEnd = m
		}

		stamp++
		f := edited.next()
		cur[f.Rel] = editFunction(cur[f.Rel], e.rng.Intn(16), stamp)
		if err := os.WriteFile(filepath.Join(dir, f.Rel), []byte(cur[f.Rel]), 0o644); err != nil {
			return err
		}
		sw, err = d.sweep("default")
		if err == nil {
			err = checkSweep(sw, f, 1)
		}
		if e.op(err) {
			edits = append(edits, ms(sw.Wall))
		}
		e.after(sw.Wall)

		var batch time.Duration
		for k := 0; k < 24; k++ {
			var wall time.Duration
			var err error
			if k%4 == 3 {
				in := newInline(e.rng, stamp*24+k, pfs)
				var resp applyResp
				resp, wall, err = d.apply(applyReq{Session: "default", Patch: in.patch, Name: in.name, Source: &in.src})
				if err == nil {
					var out string
					if out, err = applyDiff(in.src, resp.Diff); err == nil {
						err = in.check(out)
					}
				}
				if e.op(err) {
					inlineApplies = append(inlineApplies, ms(wall))
				}
			} else {
				g := applied.next()
				var resp applyResp
				resp, wall, err = d.apply(applyReq{Session: "default", File: g.Rel})
				if err == nil {
					var out string
					if out, err = applyDiff(cur[g.Rel], resp.Diff); err == nil {
						err = checkPorted(g, out)
					}
				}
				if e.op(err) {
					fileApplies = append(fileApplies, ms(wall))
				}
			}
			if err == nil {
				applies = append(applies, ms(wall))
			}
			batch += wall
		}
		e.after(batch)
	}
	peak := d.stop()
	d = nil
	e.report("sweep_ms", "ms", 1, warm)
	e.report("edit_ms", "ms", 1, edits)
	e.report("apply_ms", "ms", 1, applies)
	e.set("rss_mb", "MB", rss)
	e.info["warm_sweep_p50_ms"] = median(warm)
	tail(e.info, "warm_sweep_p90_ms", warm, 0.9)
	e.info["edit_sweep_p50_ms"] = median(edits)
	tail(e.info, "edit_sweep_p90_ms", edits, 0.9)
	e.info["apply_p50_ms"] = median(applies)
	tail(e.info, "apply_p90_ms", applies, 0.9)
	tail(e.info, "apply_p99_ms", applies, 0.99)
	e.info["apply_file_p50_ms"] = median(fileApplies)
	e.info["apply_inline_p50_ms"] = median(inlineApplies)
	e.info["serve_rss_mb"] = rss
	e.info["serve_rss_end_mb"] = rssEnd
	e.info["serve_peak_rss_mb"] = peak
	return nil
}

// firstSweepMatches checks a daemon's first sweep against the cold CLI
// port's diffs of the same tree, hunk for hunk.
func firstSweepMatches(sw sweep, n int, cli map[string]string, rel func(string) string) error {
	if sw.Files != n || len(sw.Diffs) != n {
		return fmt.Errorf("first sweep: %d files reported, %d generated", sw.Files, n)
	}
	for name, df := range sw.Diffs {
		if hunks(df) != hunks(cli[rel(name)]) {
			return fmt.Errorf("first sweep: %s differs from the cold port", rel(name))
		}
	}
	return nil
}

// checkCached: each operation pair is one cold `gocci --check --campaign
// hpc-checks --format sarif --cache-dir D` into an empty D, then, after an
// edit of one function of one file, one warm run in a new process reading
// D. The apply op checks one file in a fresh process.
func checkCached(e *env) error {
	pfs := checkPatchFiles()
	n := checkFiles / e.size
	t, dir, err := e.prepare(n, true, pfs, campaignOpts("hpc-checks"))
	if err != nil {
		return err
	}
	planted := t.planted()
	want := wantCheckExit(planted)
	e.info["planted_findings"] = len(planted)
	cur := sources(t)
	empty := filepath.Join(e.work, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		return err
	}
	// The cache is written once, in set-up, and then only read (plus the
	// entries of each edited file). Timing the cold write in the window
	// would time the machine's file system instead: on the virtual machines
	// this was sized on, writing the ~9k small entry files of one cold run
	// swings from 0.5 s to 7 s of kernel time from minute to minute, with
	// user time flat. The cold write is kept in the run record.
	cacheDir := filepath.Join(e.work, "cache")
	base := []string{"--check", "--campaign", "hpc-checks", "--format", "sarif"}
	j := strconv.Itoa(e.jobs)
	e.setupRuns(21, func() (time.Duration, error) {
		r, err := e.sp.run(empty, e.gocci(), append(base, "-r", ".")...)
		return r.Wall, exitErr("check setup", r, err, 0)
	})

	checkOp := func(extra ...string) (procResult, error) {
		args := append(append([]string{}, base...), extra...)
		r, err := e.sp.run(dir, e.gocci(), append(args, "-j", j, "-r", ".")...)
		if err := exitErr("check", r, err, want); err != nil {
			return r, err
		}
		got, _, err := sarifFindings(r.Stdout, ".")
		if err == nil {
			err = sameMultiset(got, planted)
		}
		return r, err
	}
	r, err := checkOp("--cache-dir", cacheDir)
	if err != nil {
		return fmt.Errorf("cold check writing the cache: %w", err)
	}
	e.info["check_cold_write_s"] = r.Wall.Seconds()
	e.deadline = time.Now().Add(e.seconds)
	if e.trace {
		tracePath := filepath.Join(e.work, "trace.json")
		return e.tracedRun(func(traced bool) (time.Duration, []byte, error) {
			if !traced {
				r, err := checkOp()
				return r.Wall, nil, err
			}
			r, err := checkOp("--trace", tracePath)
			if err != nil {
				return 0, nil, err
			}
			doc, err := os.ReadFile(tracePath)
			return r.Wall, doc, err
		}, func() layerInput {
			return layerInput{treeDir: dir, files: t.Files, src: cur, patches: pfs,
				opts: campaignOpts("hpc-checks"), applies: pickFiles(e.rng, t, 16)}
		})
	}

	var cold, warm, singles, rss []float64
	edited, checked := newPicker(t, e.rng), newPicker(t, e.rng)
	stamp := 0
	for e.more(len(cold)) {
		r, err := checkOp()
		if e.op(err) {
			cold = append(cold, ms(r.Wall))
			rss = append(rss, r.RSSMB)
		}
		e.after(r.Wall)

		stamp++
		f := edited.next()
		cur[f.Rel] = editFunction(cur[f.Rel], e.rng.Intn(16), stamp)
		if err := os.WriteFile(filepath.Join(dir, f.Rel), []byte(cur[f.Rel]), 0o644); err != nil {
			return err
		}
		r, err = checkOp("--cache-dir", cacheDir)
		if e.op(err) {
			warm = append(warm, ms(r.Wall))
		}
		e.after(r.Wall)

		for k := 0; k < 3; k++ {
			g := checked.next()
			one := map[string]int{}
			for id, c := range g.Planted {
				one[id+" "+filepath.ToSlash(g.Rel)] = c
			}
			r, err := e.sp.run(dir, e.gocci(), append(append([]string{}, base...), g.Rel)...)
			if err = exitErr("check one file", r, err, wantCheckExit(one)); err == nil {
				var got map[string]int
				if got, _, err = sarifFindings(r.Stdout, "."); err == nil {
					err = sameMultiset(got, one)
				}
			}
			if e.op(err) {
				singles = append(singles, ms(r.Wall))
			}
			e.after(r.Wall)
		}
	}
	e.report("sweep_ms", "ms", 1, cold)
	e.report("edit_ms", "ms", 1, warm)
	e.report("apply_ms", "ms", 1, singles)
	e.set("rss_mb", "MB", median(rss))
	e.info["check_cold_s"] = median(cold) / 1000
	e.info["check_warm_s"] = median(warm) / 1000
	if len(cold) > 0 {
		e.info["cold_files_per_s"] = float64(n) / (median(cold) / 1000)
	}
	return nil
}
