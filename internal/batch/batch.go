// Package batch applies one semantic patch across many source files with a
// worker pool, the way spatch is used over a whole codebase. The patch is
// compiled once (core.Compile) and the read-only artifacts are shared by
// per-worker engine instances; per-file results stream to the caller in
// input order with bounded memory, so a run over a million-file corpus
// holds only a small window of results at any moment. Before parsing a
// file, workers consult the patch's required-atom prefilter
// (internal/index): a file that provably cannot be fired on by any rule is
// reported as skipped without ever being lexed or parsed, which is where
// most of the time goes on a mostly-non-matching corpus.
//
// Batch semantics are per-file: each file is patched independently, exactly
// as if it were the only file handed to a fresh core.Engine. Metavariable
// environments do not flow between files, and fresh-identifier counters
// reset per file, so the output for a file never depends on which worker
// processed it, how many workers ran, or in what order files completed.
package batch

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/core"
	"repro/internal/cparse"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/smpl"
	"repro/internal/verify"
)

// Options configures a batch run.
type Options struct {
	// Engine is the per-file engine configuration (dialect, CTL, limits).
	// Engine.NoPrefilter also disables the batch layer's file-level
	// prefilter, forcing every file through the full parse-and-match
	// pipeline. The filter only skips files no rule could possibly fire
	// on, so outputs are identical either way; disabling it restores
	// per-file parse-error reporting for files the patch provably cannot
	// touch.
	Engine core.Options
	// Workers is the pool size; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Window bounds the number of files that may be in flight (dispatched
	// but not yet delivered in order); <= 0 means 2x the worker count.
	// Larger windows tolerate more skew between fast and slow files at the
	// cost of buffering more results.
	Window int
	// CacheDir, when non-empty, enables the persistent corpus index
	// (internal/cache) rooted at that directory: file scans and per-file
	// results are cached by content hash, so re-running over an unchanged
	// corpus skips scanning, parsing, and matching. Outputs are identical
	// with the cache cold, warm, or disabled; invalidation is automatic
	// (editing a file, the patch, or result-affecting options changes the
	// key). An unusable directory is reported once per run, like any other
	// configuration error.
	CacheDir string
	// Store, when non-nil, is the cache the run reads and writes through —
	// typically a cache.Memory layered over a disk cache, owned by a
	// resident server (internal/serve). It takes precedence over CacheDir.
	// The Cache() status surface only covers caches opened from CacheDir; a
	// caller supplying its own Store reports its own status.
	Store cache.Store
	// NoFuncCache disables function-granular processing (per-function
	// result caching, prefiltering, and intra-file parallel matching) for
	// patches that qualify (core.FunctionLocal). Outputs are identical
	// either way; the knob exists for debugging and differential testing,
	// so it is excluded from the result-cache fingerprint.
	NoFuncCache bool
	// Verify runs the post-transform safety checker (internal/verify) on
	// every file a patch changed: capture-avoidance and def-use checks for
	// rewritten identifiers, pragma round-trip checks for directive
	// translations, and an output re-parse. An unsafe finding demotes the
	// edit — the file's output reverts to its input and the findings ride
	// the result as structured warnings. Verify mode (and the checker
	// version) keys the result cache, so verified and unverified runs never
	// share cached outcomes.
	Verify bool
	// Tracer, when non-nil, receives pipeline spans: each worker records its
	// read/hash/prefilter/parse/segment/cfg/match/verify/render and cache
	// traffic on its own track. Tracing never changes outputs, so it is
	// excluded from the result-cache fingerprint; with a nil Tracer every
	// instrumentation site costs a single pointer check.
	Tracer *obs.Tracer
}

// fingerprint canonicalizes every result-affecting engine option into the
// result-cache key, so a cached outcome is only ever replayed under the
// exact configuration that produced it. Workers/Window are excluded: they
// cannot change outputs. NoPrefilter is left out on purpose, so pruned and
// unpruned runs share one cache: their outputs are identical, and the only
// difference is error-vs-success on a file whose intermediate output does
// not parse, which pruning never re-parses (errors are never cached).
func fingerprint(o core.Options) string {
	maxEnvs := o.MaxEnvs
	if maxEnvs == 0 {
		maxEnvs = 4096 // the engine's default; 0 and 4096 are the same run
	}
	defines := append([]string(nil), o.Defines...)
	sort.Strings(defines)
	return fmt.Sprintf("cpp=%v,std=%d,cuda=%v,ctl=%v,seqdots=%v,maxenvs=%d,maxmatch=%d,D=%s",
		o.CPlusPlus, o.Std, o.CUDA, o.UseCTL, o.SeqDots, maxEnvs, o.MaxMatchesPerRule,
		strings.Join(defines, ";"))
}

// keyFingerprint extends the engine fingerprint with every result-affecting
// input that lives outside the patch text: verify mode (with the checker's
// version, so changing the checks invalidates cached verify decisions), the
// finding-emission version for patches that carry check rules (so changing
// how findings are derived invalidates cached findings), and the declared
// versions of native Go script handlers (so a re-versioned handler
// invalidates every outcome it helped produce).
func keyFingerprint(o core.Options, verifyOn, hasChecks bool, scriptVers map[string]string) string {
	fp := fingerprint(o)
	if verifyOn {
		fp += ",verify=" + verify.Version
	}
	if hasChecks {
		fp += ",check=" + analysis.Version
	}
	if len(scriptVers) > 0 {
		rules := make([]string, 0, len(scriptVers))
		for rule := range scriptVers {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		var sb strings.Builder
		for i, rule := range rules {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(rule)
			sb.WriteByte(':')
			sb.WriteString(scriptVers[rule])
		}
		fp += ",scripts=" + sb.String()
	}
	return fp
}

// verifyOptions maps the engine dialect onto the checker's.
func verifyOptions(o core.Options) verify.Options {
	return verify.Options{CPlusPlus: o.CPlusPlus, Std: o.Std, CUDA: o.CUDA}
}

// storeWarnings converts checker findings to their cache form.
func storeWarnings(warns []verify.Warning) []cache.Warning {
	out := make([]cache.Warning, len(warns))
	for i, w := range warns {
		out[i] = cache.Warning{Code: w.Code, Func: w.Func, Message: w.Message, Unsafe: w.Unsafe}
	}
	return out
}

// loadWarnings converts cached findings back to checker form.
func loadWarnings(ws []cache.Warning) []verify.Warning {
	if len(ws) == 0 {
		return nil
	}
	out := make([]verify.Warning, len(ws))
	for i, w := range ws {
		out[i] = verify.Warning{Code: w.Code, Func: w.Func, Message: w.Message, Unsafe: w.Unsafe}
	}
	return out
}

// storeFindings converts check-rule findings to their file-level cache form.
func storeFindings(fs []analysis.Finding) []cache.Finding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]cache.Finding, len(fs))
	for i, f := range fs {
		out[i] = cache.Finding{
			Check: f.Check, Severity: f.Severity, File: f.File, Line: f.Line,
			Col: f.Col, Func: f.Func, Message: f.Message, Rule: f.Rule,
			Bindings: f.Bindings, FuncHash: f.FuncHash, TokOff: f.TokOff,
		}
	}
	return out
}

// loadFindings converts cached file-level findings back to analysis form.
func loadFindings(fs []cache.Finding) []analysis.Finding {
	if len(fs) == 0 {
		return nil
	}
	out := make([]analysis.Finding, len(fs))
	for i, f := range fs {
		out[i] = analysis.Finding{
			Check: f.Check, Severity: f.Severity, File: f.File, Line: f.Line,
			Col: f.Col, Func: f.Func, Message: f.Message, Rule: f.Rule,
			Bindings: f.Bindings, FuncHash: f.FuncHash, TokOff: f.TokOff,
		}
	}
	return out
}

// FileResult is the outcome for one input file.
type FileResult struct {
	// Index is the file's position in the input slice; results are
	// delivered in increasing Index order. A configuration error that
	// aborts the run before any file is processed (e.g. an undeclared
	// define) is delivered as a single result with Index -1.
	Index int
	// Name is the input file name.
	Name string
	// Output is the (possibly transformed) source; empty when Err is set.
	Output string
	// Diff is the unified diff; empty when the file is unchanged.
	Diff string
	// MatchCount counts matches per rule in this file.
	MatchCount map[string]int
	// Skipped reports that the prefilter proved no rule could fire on this
	// file, so it was never parsed; Output equals the input and Diff is
	// empty, exactly as a full run would have produced.
	Skipped bool
	// Cached reports that the whole result was replayed from the persistent
	// result cache — the file was neither scanned nor parsed nor matched
	// this run. Cached and Skipped are mutually exclusive: a cache hit is
	// reported as cached even when the cached outcome was originally a
	// prefilter skip.
	Cached bool
	// EnvsTruncated reports that this file's run hit the MaxEnvs cap and
	// dropped matches (see core.Result.EnvsTruncated).
	EnvsTruncated bool
	// FuncsMatched counts this file's function segments that were matched
	// fresh by the function-granular pipeline (0 when the file took the
	// file-level path).
	FuncsMatched int
	// FuncsCached counts this file's function segments replayed from the
	// function-granular result cache.
	FuncsCached int
	// Warnings are the post-transform verifier's findings for this file
	// (only ever set under Options.Verify).
	Warnings []verify.Warning
	// Demoted reports that an unsafe finding reverted the edit: MatchCount
	// still records what matched, but Output equals the input and Diff is
	// empty.
	Demoted bool
	// Findings are the check-rule reports for this file (match-only star
	// rules and gocci:check rules; empty for pure transform patches).
	Findings []analysis.Finding
	// Parsed reports that this run actually parsed the file. False for
	// prefilter skips and cache replays — the warm-sweep signal `gocci
	// --check` sums into its "parsed: N" line.
	Parsed bool
	// Err is the per-file failure (parse error, script error); other files
	// in the batch are unaffected.
	Err error
}

// Changed reports whether the patch modified the file.
func (r FileResult) Changed() bool { return r.Diff != "" }

// Matches is the total number of rule matches in the file.
func (r FileResult) Matches() int {
	n := 0
	for _, c := range r.MatchCount {
		n += c
	}
	return n
}

// Stats aggregates a completed run.
type Stats struct {
	Files   int // files processed
	Matched int // files where at least one rule matched
	Changed int // files whose output differs from the input
	Errors  int // files that failed (parse or script error)
	Matches int // total rule matches across all files
	Skipped int // files the prefilter rejected without parsing
	Cached  int // files replayed from the persistent result cache
	// FuncsMatched and FuncsCached count function segments matched fresh
	// vs replayed from the function-granular cache across all files.
	FuncsMatched int
	FuncsCached  int
	// Demoted counts files whose edit the verifier reverted; Warnings
	// totals the verifier findings across all files.
	Demoted  int
	Warnings int
	// Findings totals the check-rule reports across all files.
	Findings int
	// Parsed counts files this run actually parsed (as opposed to skipping
	// via the prefilter or replaying from a cache).
	Parsed int
}

// Runner applies one compiled patch across file sets.
type Runner struct {
	compiled *core.Compiled
	opts     Options
	scripts  map[string]core.ScriptFunc
	// scriptVers holds the declared version of each script handler
	// registered through RegisterScriptVersioned; handlers registered
	// without a version never appear here, which is what disables the
	// result cache (see resultCacheable).
	scriptVers map[string]string
	// filter is the per-run required-atom prefilter (nil when disabled):
	// workers consult it on raw file bytes before parsing, and skip files
	// no rule could possibly fire on.
	filter *index.Filter
	// store is the cache the run reads and writes through (nil when
	// disabled), disk the *cache.Cache opened from Options.CacheDir for
	// status reporting (nil when the caller supplied Options.Store).
	store cache.Store
	disk  *cache.Cache
	// resultKey is this patch+options+scripts tuple's result-cache key,
	// computed lazily on first use (keyOnce) because script registration
	// happens after construction.
	resultKey string
	keyOnce   sync.Once
	patchSrc  string
	// fn drives function-granular processing when the patch qualifies and
	// Options.NoFuncCache is off; nil otherwise.
	fn *fnRunner
	// cfgErr is a patch/options mismatch caught at construction; it is
	// reported once per run instead of once per file.
	cfgErr error
}

// New compiles the patch once and returns a Runner; the Runner may be used
// for any number of Run calls, concurrently if desired.
func New(patch *smpl.Patch, opts Options) *Runner {
	r := &Runner{
		compiled:   core.Compile(patch),
		opts:       opts,
		scripts:    map[string]core.ScriptFunc{},
		scriptVers: map[string]string{},
		patchSrc:   patch.Src,
		cfgErr:     core.ValidateDefines(patch, opts.Engine.Defines),
	}
	if !opts.Engine.NoPrefilter {
		r.filter = r.compiled.Prefilter.ForDefines(opts.Engine.Defines)
	}
	switch {
	case opts.Store != nil:
		r.store = opts.Store
	case opts.CacheDir != "":
		c, err := cache.Open(opts.CacheDir)
		if err != nil && r.cfgErr == nil {
			r.cfgErr = err
		}
		if c != nil {
			// A typed nil must not become a non-nil Store interface.
			r.disk, r.store = c, c
		}
	}
	if !opts.NoFuncCache {
		r.fn = newFnRunner(r.compiled, opts.Engine, r.filter)
	}
	return r
}

// Cache returns the disk cache opened from Options.CacheDir, or nil when
// caching is disabled, its directory was unusable, or the store was
// supplied via Options.Store. Callers use it to surface rebuild and
// corruption reports.
func (r *Runner) Cache() *cache.Cache { return r.disk }

// RegisterScript installs a native Go handler for the named script rule on
// every worker engine. Must be called before Run; the handler may be called
// from multiple goroutines and must be safe for that.
//
// Registering any Go handler disables the persistent result cache for this
// Runner: a native function's behaviour is not captured by the patch text
// the cache keys on, so replaying results across handler versions would be
// unsound. (Script rules written in the patch itself cache fine — their
// code is part of the patch hash.) The scan cache stays active.
func (r *Runner) RegisterScript(rule string, fn core.ScriptFunc) *Runner {
	r.scripts[rule] = fn
	return r
}

// RegisterScriptVersioned is RegisterScript for handlers that declare a
// version string covering everything their behaviour depends on (code
// revision, embedded tables, modes). The version joins the result-cache
// fingerprint, so — unlike RegisterScript — the persistent result cache
// stays enabled: bumping the version invalidates every cached outcome the
// handler helped produce, which restores the soundness RegisterScript has
// to give up.
func (r *Runner) RegisterScriptVersioned(rule, version string, fn core.ScriptFunc) *Runner {
	r.scripts[rule] = fn
	r.scriptVers[rule] = version
	return r
}

// resultCacheable reports whether per-file results may be persisted and
// replayed for this runner: a store must be open and every registered Go
// handler must have declared a version.
func (r *Runner) resultCacheable() bool {
	return r.store != nil && len(r.scripts) == len(r.scriptVers)
}

// key returns this runner's result-cache key, computed on first use so
// that script handlers registered after construction are reflected in it.
// Callers must not register further scripts once a Run has started.
func (r *Runner) key() string {
	r.keyOnce.Do(func() {
		r.resultKey = cache.ResultKey(r.patchSrc,
			keyFingerprint(r.opts.Engine, r.opts.Verify, r.compiled.Patch.HasChecks(), r.scriptVers))
	})
	return r.resultKey
}

// workers resolves the effective pool size for n files.
func (r *Runner) workers(n int) int {
	w := r.opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run streams per-file results to yield in input order, stopping early if
// yield returns false. It blocks until delivery finishes and all workers
// have exited; memory use is bounded by the window size, not the corpus.
func (r *Runner) Run(files []core.SourceFile, yield func(FileResult) bool) {
	r.run(len(files), func(i int) (core.SourceFile, error) { return files[i], nil }, yield)
}

// RunPaths is Run for on-disk files: each worker reads its file from disk
// just before patching it, so the corpus text is never resident all at
// once — only the in-flight window is. A file that cannot be read reports
// the error in its FileResult like any other per-file failure.
func (r *Runner) RunPaths(paths []string, yield func(FileResult) bool) {
	r.run(len(paths), func(i int) (core.SourceFile, error) {
		b, err := os.ReadFile(paths[i])
		if err != nil {
			return core.SourceFile{Name: paths[i]}, err
		}
		return core.SourceFile{Name: paths[i], Src: string(b)}, nil
	}, yield)
}

// run is the shared pool: get fetches the i-th file inside a worker.
func (r *Runner) run(n int, get func(int) (core.SourceFile, error), yield func(FileResult) bool) {
	if r.cfgErr != nil {
		yield(FileResult{Index: -1, Err: r.cfgErr})
		return
	}
	if n == 0 {
		return
	}
	workers := r.workers(n)
	window := r.opts.Window
	if window <= 0 {
		window = 2 * workers
	}
	var wid atomic.Int32
	runPool(n, workers, window, func() (func(int) FileResult, func()) {
		eng := core.NewCompiled(r.compiled, r.opts.Engine)
		for rule, fn := range r.scripts {
			eng.RegisterScript(rule, fn)
		}
		tk := r.opts.Tracer.Track(fmt.Sprintf("worker-%d", wid.Add(1)))
		eng.SetTrace(tk)
		wsp := tk.Start(obs.StageWorker)
		return func(idx int) FileResult { return r.processOne(eng, tk, get, idx) }, wsp.End
	}, func(fr FileResult) int { return fr.Index }, yield)
}

// processOne produces the result for one file: replayed from the result
// cache when possible, skipped when the prefilter rules it out, otherwise
// parsed and patched — and the outcome persisted for the next run.
func (r *Runner) processOne(eng *core.Engine, tk *obs.Track, get func(int) (core.SourceFile, error), idx int) FileResult {
	fsp := tk.Start(obs.StageFile)
	defer fsp.End()
	rsp := tk.Start(obs.StageRead)
	f, err := get(idx)
	rsp.End()
	fsp.File(f.Name)
	if err != nil {
		return FileResult{Index: idx, Name: f.Name, Err: err}
	}
	fileHash := ""
	if r.resultCacheable() {
		hsp := tk.Start(obs.StageHash).File(f.Name)
		fileHash = cache.HashString(f.Src)
		hsp.End()
		csp := tk.Start(obs.StageCacheRead).File(f.Name)
		rec, ok := r.store.Result(r.key(), fileHash)
		if ok {
			csp.Outcome(obs.OutcomeHit).End()
			return replay(idx, f, rec)
		}
		csp.Outcome(obs.OutcomeMiss).End()
	}
	var fr FileResult
	pass, words := true, map[string]bool(nil)
	if r.filter != nil {
		pass, words = r.mayMatchTraced(tk, f, fileHash)
	}
	if !pass {
		// Provably unmatchable: synthesize the result a full run would
		// produce, without parsing. (A syntactically broken file that
		// cannot match is skipped too — its parse error goes unreported,
		// like spatch under a glimpse index; pass NoPrefilter to surface
		// such errors.)
		fr = FileResult{
			Index: idx, Name: f.Name, Output: f.Src,
			MatchCount: map[string]int{}, Skipped: true,
		}
	} else {
		fr = r.applyFile(eng, tk, f, idx, words)
	}
	if r.opts.Verify && fr.Err == nil && fr.Output != f.Src {
		vsp := tk.Start(obs.StageVerify).File(f.Name)
		fr.Warnings = verify.Check(f.Name, f.Src, fr.Output, verifyOptions(r.opts.Engine))
		vsp.End()
		if verify.Unsafe(fr.Warnings) {
			fr.Demoted = true
			fr.Output = f.Src
			fr.Diff = ""
		}
	}
	if fileHash != "" && fr.Err == nil {
		// Errors are never cached: a parse failure is cheap to rediscover
		// and the user is likely editing the file to fix it.
		wsp := tk.Start(obs.StageCacheWrite).File(f.Name)
		r.store.PutResult(r.key(), fileHash, record(fr, f.Src))
		wsp.End()
	}
	return fr
}

// mayMatchTraced wraps mayMatch in a prefilter span recording the decision.
func (r *Runner) mayMatchTraced(tk *obs.Track, f core.SourceFile, fileHash string) (bool, map[string]bool) {
	sp := tk.Start(obs.StagePrefilter).File(f.Name)
	ok, words := r.mayMatch(f.Src, fileHash)
	if ok {
		sp.Outcome(obs.OutcomePass)
	} else {
		sp.Outcome(obs.OutcomeSkip)
	}
	sp.End()
	return ok, words
}

// mayMatch consults the prefilter, answering from the persistent scan cache
// when one is open (and priming it when not): the file's word set is
// computed at most once per content hash, ever, instead of one byte scan
// per required atom per run. fileHash is the content hash when the caller
// already computed it ("" otherwise), so a file is hashed at most once.
// The word set is returned too (nil without a store, where the filter
// tests each atom on the bytes instead), for the engine's rule pruning.
func (r *Runner) mayMatch(src, fileHash string) (bool, map[string]bool) {
	if r.store == nil {
		return r.filter.MayMatch(src), nil
	}
	h := fileHash
	if h == "" {
		h = cache.HashString(src)
	}
	words, ok := r.store.Words(h)
	if !ok {
		words = index.ScanWords(src)
		r.store.PutWords(h, words)
	}
	return r.filter.MayMatchWords(words), words
}

// record captures a completed file result for the cache.
func record(fr FileResult, input string) *cache.Record {
	rec := &cache.Record{
		MatchCount:    fr.MatchCount,
		Skipped:       fr.Skipped,
		EnvsTruncated: fr.EnvsTruncated,
		Warnings:      storeWarnings(fr.Warnings),
		Demoted:       fr.Demoted,
		Findings:      storeFindings(fr.Findings),
	}
	if fr.Output != input {
		rec.Changed = true
		rec.Output = fr.Output
	}
	return rec
}

// replay synthesizes the FileResult a full run would produce from a cached
// record. The diff is recomputed (it is a pure function of input and
// output), so replayed results are byte-identical to cold ones.
func replay(idx int, f core.SourceFile, rec *cache.Record) FileResult {
	fr := FileResult{
		Index: idx, Name: f.Name, Output: f.Src,
		MatchCount: rec.MatchCount, Cached: true,
		EnvsTruncated: rec.EnvsTruncated,
		Warnings:      loadWarnings(rec.Warnings),
		Demoted:       rec.Demoted,
		Findings:      loadFindings(rec.Findings),
	}
	if fr.MatchCount == nil {
		fr.MatchCount = map[string]int{}
	}
	if rec.Changed {
		fr.Output = rec.Output
		fr.Diff = diff.Unified("a/"+f.Name, "b/"+f.Name, f.Src, fr.Output)
	}
	return fr
}

// Collect runs the batch and accumulates aggregate statistics, forwarding
// each result to fn (which may be nil). A non-nil error from fn stops the
// run and is returned; per-file errors only count in Stats.Errors.
func (r *Runner) Collect(files []core.SourceFile, fn func(FileResult) error) (Stats, error) {
	return r.collect(func(yield func(FileResult) bool) { r.Run(files, yield) }, fn)
}

// CollectPaths is Collect over on-disk files (see RunPaths).
func (r *Runner) CollectPaths(paths []string, fn func(FileResult) error) (Stats, error) {
	return r.collect(func(yield func(FileResult) bool) { r.RunPaths(paths, yield) }, fn)
}

func (r *Runner) collect(run func(func(FileResult) bool), fn func(FileResult) error) (Stats, error) {
	var st Stats
	var cbErr error
	run(func(fr FileResult) bool {
		if fr.Index < 0 { // configuration error: abort, don't count files
			cbErr = fr.Err
			return false
		}
		st.Files++
		switch {
		case fr.Err != nil:
			st.Errors++
		default:
			if fr.Skipped {
				st.Skipped++
			}
			if fr.Cached {
				st.Cached++
			}
			if m := fr.Matches(); m > 0 {
				st.Matched++
				st.Matches += m
			}
			if fr.Changed() {
				st.Changed++
			}
			st.FuncsMatched += fr.FuncsMatched
			st.FuncsCached += fr.FuncsCached
			if fr.Demoted {
				st.Demoted++
			}
			st.Warnings += len(fr.Warnings)
			st.Findings += len(fr.Findings)
			if fr.Parsed {
				st.Parsed++
			}
		}
		if fn != nil {
			if err := fn(fr); err != nil {
				cbErr = err
				return false
			}
		}
		return true
	})
	return st, cbErr
}

// applyFile patches one file, through the function-granular pipeline when
// this runner has one (falling back to the file-level engine whenever a
// file or outcome is outside its province), else directly at file level.
// words is the file's prefilter word set when the caller has one (nil
// otherwise), handed to the engine for rule pruning.
func (r *Runner) applyFile(eng *core.Engine, tk *obs.Track, f core.SourceFile, idx int, words map[string]bool) FileResult {
	psp := tk.Start(obs.StageParse).File(f.Name)
	parsed, err := cparse.Parse(f.Name, f.Src, cparse.Options{
		CPlusPlus: r.opts.Engine.CPlusPlus, Std: r.opts.Engine.Std, CUDA: r.opts.Engine.CUDA,
	})
	psp.End()
	if err != nil {
		// Match the file-level path's error shape (core.Engine.Run).
		return FileResult{Index: idx, Name: f.Name, Err: fmt.Errorf("parsing %s: %w", f.Name, err)}
	}
	if r.fn == nil {
		return applyOneParsed(eng, tk, f, parsed, words, idx)
	}
	var store cache.Store
	key := ""
	if r.resultCacheable() {
		store, key = r.store, r.key()
	}
	if out, ok := r.fn.apply(eng, tk, f.Name, f.Src, parsed, &parseShare{}, store, key); ok {
		return FileResult{
			Index:        idx,
			Name:         f.Name,
			Output:       out.Output,
			Diff:         fileDiff(tk, f, out.Output),
			MatchCount:   out.MatchCount,
			FuncsMatched: out.Matched,
			FuncsCached:  out.Cached,
			Findings:     out.Findings,
			Parsed:       true,
		}
	}
	return applyOneParsed(eng, tk, f, parsed, words, idx)
}

// applyOneParsed patches a single parsed file on a reset engine.
func applyOneParsed(eng *core.Engine, tk *obs.Track, f core.SourceFile, parsed *cast.File, words map[string]bool, idx int) FileResult {
	eng.Reset()
	res, err := eng.RunParsed([]core.ParsedFile{{Name: f.Name, Src: f.Src, File: parsed, Words: words}})
	if err != nil {
		return FileResult{Index: idx, Name: f.Name, Err: err}
	}
	out := res.Outputs[f.Name]
	return FileResult{
		Index:         idx,
		Name:          f.Name,
		Output:        out,
		Diff:          fileDiff(tk, f, out),
		MatchCount:    res.MatchCount,
		EnvsTruncated: res.EnvsTruncated,
		Findings:      res.Findings,
		Parsed:        true,
	}
}

// fileDiff is the unified diff of f's input against out ("" when equal): the
// engine returns outputs only, and the runner diffs what it emits.
func fileDiff(tk *obs.Track, f core.SourceFile, out string) string {
	if out == f.Src {
		return ""
	}
	sp := tk.Start(obs.StageRender).File(f.Name)
	defer sp.End()
	return diff.Unified("a/"+f.Name, "b/"+f.Name, f.Src, out)
}
