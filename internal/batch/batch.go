// Package batch applies semantic patches across many source files with a
// worker pool, the way spatch is used over a whole codebase. One pipeline
// does the work: a Campaign applies an ordered list of patches per file, and
// a Runner is the one-patch view over a one-member Campaign. Each patch is
// compiled once (core.Compile) and the read-only artifacts are shared by
// per-worker engine instances; per-file results stream to the caller in
// input order with bounded memory, so a run over a million-file corpus
// holds only a small window of results at any moment. Before parsing a
// file, workers consult each patch's required-atom prefilter
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
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/core"
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
	// Parsed reports that this run actually parsed the file, whether or not
	// the parse succeeded. False for prefilter skips and cache replays — the
	// warm-sweep signal `gocci --check` sums into its "parsed: N" line.
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
	// via the prefilter or replaying from a cache), including files whose
	// parse failed: errors are never cached, so every run re-parses them.
	Parsed int
	// Parses counts the run's full parses, re-parses after edits included;
	// Rebinds counts the re-parses it replaced by rebinding the previous
	// tree to edits that keep every token's kind.
	Parses, Rebinds int
}

// Runner applies one patch across file sets. It is a view over a one-member
// Campaign: the pool, ordering, memory bounds, caching, prefilter, verify and
// error contracts are the Campaign's (see Campaign), and each result is
// flattened to the single member's outcome.
type Runner struct {
	c *Campaign
}

// New compiles the patch once and returns a Runner; the Runner may be used
// for any number of Run calls, concurrently if desired.
func New(patch *smpl.Patch, opts Options) *Runner {
	return &Runner{c: NewCampaign([]*smpl.Patch{patch}, opts)}
}

// Cache returns the disk cache opened from Options.CacheDir (see
// Campaign.Cache).
func (r *Runner) Cache() *cache.Cache { return r.c.Cache() }

// RegisterScript installs a native Go handler for the named script rule (see
// Campaign.RegisterScript).
func (r *Runner) RegisterScript(rule string, fn core.ScriptFunc) *Runner {
	r.c.RegisterScript(rule, fn)
	return r
}

// RegisterScriptVersioned installs a handler that declares a version (see
// Campaign.RegisterScriptVersioned).
func (r *Runner) RegisterScriptVersioned(rule, version string, fn core.ScriptFunc) *Runner {
	r.c.RegisterScriptVersioned(rule, version, fn)
	return r
}

// Run streams per-file results to yield in input order, stopping early if
// yield returns false (see Campaign.Run).
func (r *Runner) Run(files []core.SourceFile, yield func(FileResult) bool) {
	r.c.Run(files, func(cr CampaignFileResult) bool { return yield(fileResult(cr)) })
}

// RunPaths is Run for on-disk files, read lazily inside the pool (see
// Campaign.RunPaths).
func (r *Runner) RunPaths(paths []string, yield func(FileResult) bool) {
	r.c.RunPaths(paths, func(cr CampaignFileResult) bool { return yield(fileResult(cr)) })
}

// Collect runs the batch and accumulates aggregate statistics, forwarding
// each result to fn (which may be nil). A non-nil error from fn stops the
// run and is returned; per-file errors only count in Stats.Errors.
func (r *Runner) Collect(files []core.SourceFile, fn func(FileResult) error) (Stats, error) {
	cs, err := r.c.Collect(files, forward(fn))
	return flatStats(cs), err
}

// CollectPaths is Collect over on-disk files (see RunPaths).
func (r *Runner) CollectPaths(paths []string, fn func(FileResult) error) (Stats, error) {
	cs, err := r.c.CollectPaths(paths, forward(fn))
	return flatStats(cs), err
}

// forward adapts a FileResult callback to the campaign's result type.
func forward(fn func(FileResult) error) func(CampaignFileResult) error {
	if fn == nil {
		return nil
	}
	return func(cr CampaignFileResult) error { return fn(fileResult(cr)) }
}

// fileResult flattens a one-member campaign result. A file that failed
// before its member finished carries no outcome.
func fileResult(cr CampaignFileResult) FileResult {
	var o PatchOutcome
	if len(cr.Patches) == 1 {
		o = cr.Patches[0]
	}
	return FileResult{
		Index: cr.Index, Name: cr.Name, Output: cr.Output, Diff: cr.Diff, Parsed: cr.Parsed, Err: cr.Err,
		MatchCount: o.MatchCount, Skipped: o.Skipped, Cached: o.Cached, EnvsTruncated: o.EnvsTruncated,
		FuncsMatched: o.FuncsMatched, FuncsCached: o.FuncsCached,
		Warnings: o.Warnings, Demoted: o.Demoted, Findings: o.Findings,
	}
}

// flatStats flattens one-member campaign statistics; a run stopped by a
// configuration error has no members.
func flatStats(cs CampaignStats) Stats {
	var ps PatchStats
	if len(cs.PerPatch) == 1 {
		ps = cs.PerPatch[0]
	}
	return Stats{
		Files: cs.Files, Changed: cs.Changed, Errors: cs.Errors, Parsed: cs.Parsed,
		Parses: cs.Parses, Rebinds: cs.Rebinds,
		Matched: ps.Matched, Matches: ps.Matches, Skipped: ps.Skipped, Cached: ps.Cached,
		FuncsMatched: ps.FuncsMatched, FuncsCached: ps.FuncsCached,
		Demoted: ps.Demoted, Warnings: ps.Warnings, Findings: ps.Findings,
	}
}
