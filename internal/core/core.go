// Package core implements the semantic patch engine: it runs the rules of a
// parsed SmPL patch, in order, over a set of C/C++ source files. Match rules
// bind metavariables and record token edits; script rules transform bindings
// through the restricted Python interpreter or registered Go functions;
// environments flow from rule to rule exactly as in Coccinelle, keyed by
// rule-qualified metavariable names. Before a match rule runs, the patch's
// required-atom index (Compiled.Prefilter) drops every file whose words
// rule the rule out; edited files are re-parsed lazily, just before the
// next match rule that can fire on them, so later rules match the patched
// code and the output of the last rule that can fire never has to re-parse
// at all.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/diff"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/minipy"
	"repro/internal/obs"
	"repro/internal/smpl"
	"repro/internal/transform"
)

// Options configures an engine run.
type Options struct {
	CPlusPlus bool
	Std       int // 11, 17, 23
	CUDA      bool
	// UseCTL enables control-flow (CTL) verification of dots constraints in
	// addition to the syntactic check. It only affects patterns matched by
	// the legacy sequence matcher (SeqDots, or patterns the path engine
	// does not take): the CFG dots engine enforces path constraints itself.
	UseCTL bool
	// SeqDots selects the legacy syntactic sequence matcher for statement
	// dots instead of the default path-sensitive CFG engine. On
	// straight-line code the two produce identical results; the sequence
	// matcher cannot match anchors sitting on different branch arms or
	// across loop back-edges.
	SeqDots bool
	// MaxEnvs caps the environment set size (default 4096).
	MaxEnvs int
	// MaxMatchesPerRule caps matches per rule per file (default unlimited).
	MaxMatchesPerRule int
	// Defines sets virtual dependency names to true (spatch -D). Names not
	// declared `virtual` in the patch are rejected at Run time.
	Defines []string
	// NoPrefilter turns off rule pruning: every match rule re-parses and
	// enumerates candidates in every file, even where the required-atom
	// index proves it cannot match. Outputs are identical either way,
	// except that a re-parse error in a file no later rule can fire on
	// surfaces only with pruning off.
	NoPrefilter bool
}

// SourceFile is one input file.
type SourceFile struct {
	Name string
	Src  string
}

// ScriptFunc is a native Go replacement for a script rule body: it receives
// the rule's input bindings and returns its output bindings.
type ScriptFunc func(inputs map[string]string) (map[string]string, error)

// Result reports the outcome of a run.
type Result struct {
	// Outputs maps file name to transformed source (always present, equal
	// to the input when nothing matched).
	Outputs map[string]string
	// Diffs maps file name to a unified diff ("" when unchanged). Run fills
	// it; RunParsed leaves it nil, because its callers diff against their
	// own inputs, only for the outputs they emit.
	Diffs map[string]string
	// Matched reports which rules matched at least once.
	Matched map[string]bool
	// MatchCount counts matches per rule.
	MatchCount map[string]int
	// EnvCount is the number of final environments.
	EnvCount int
	// EnvsTruncated reports that the environment set hit Options.MaxEnvs
	// and further matches were dropped: the outputs are valid but possibly
	// incomplete, and the caller should rerun with a larger cap.
	EnvsTruncated bool
	// Findings are the reports emitted by match-only check rules (star-line
	// bodies or gocci:check headers), deduplicated, in emission order.
	Findings []analysis.Finding
	// Parses counts the full parses this run made: the inputs Run parses
	// and the re-parses of edited text before a later rule matches it.
	// Rebinds counts the re-parses it replaced by rebinding the previous
	// tree to edits that keep every token's kind (cparse.RebindEdits).
	Parses, Rebinds int

	// final holds each file's last state, for Tree.
	final []*fileState
	popts cparse.Options
}

// Tree returns a parse of the named file's output text when one is
// available without a full parse: the run's last parse when no edit is
// pending on it, or a rebind of that parse to the pending edits when they
// keep every token's kind. rebound reports that Tree made a rebind (it
// records a parse span with the rebind outcome); f is nil when only a full
// parse could produce the tree, and for files the run did not hold. A
// campaign hands the tree to its next member, which would otherwise parse
// the output again.
func (r *Result) Tree(name string) (f *cast.File, rebound bool) {
	for _, st := range r.final {
		if st.name != name {
			continue
		}
		if !st.dirty {
			return st.file, false
		}
		sp := st.trace.Start(obs.StageParse).File(st.name)
		if !st.rebind(r.Outputs[name], r.popts) {
			sp.Outcome(obs.OutcomeDeclined).End()
			return nil, false
		}
		sp.Outcome(obs.OutcomeRebind).End()
		return st.file, true
	}
	return nil, false
}

// Changed lists the names of files whose output differs from the input
// (from Diffs, so only for Run results).
func (r *Result) Changed() []string {
	var out []string
	for name, d := range r.Diffs {
		if d != "" {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Engine applies one patch to source files.
type Engine struct {
	patch    *smpl.Patch
	compiled *Compiled
	opts     Options
	interp   *minipy.Interp
	hosts    map[string]ScriptFunc
	fresh    map[string]int
	trace    *obs.Track
}

// New creates an engine for a parsed patch.
func New(patch *smpl.Patch, opts Options) *Engine {
	return NewCompiled(Compile(patch), opts)
}

// NewCompiled creates an engine from pre-compiled patch artifacts. Multiple
// engines may share one Compiled value concurrently; each engine itself must
// only be used from one goroutine at a time.
func NewCompiled(c *Compiled, opts Options) *Engine {
	if opts.MaxEnvs == 0 {
		opts.MaxEnvs = 4096
	}
	return &Engine{
		patch:    c.Patch,
		compiled: c,
		opts:     opts,
		interp:   minipy.New(),
		hosts:    map[string]ScriptFunc{},
		fresh:    map[string]int{},
	}
}

// Reset clears the engine's accumulated run state — fresh-identifier
// counters and script-interpreter globals — so the next Run behaves exactly
// like a run on a newly constructed engine. Registered Go script handlers
// are kept. Batch workers call this between files so that results do not
// depend on which worker processed which file.
func (e *Engine) Reset() {
	e.interp = minipy.New()
	e.fresh = map[string]int{}
}

// RegisterScript installs a native Go handler for the named script rule,
// overriding the Python interpreter for that rule.
func (e *Engine) RegisterScript(ruleName string, fn ScriptFunc) {
	e.hosts[ruleName] = fn
}

// SetTrace attaches an observability track; the engine records parse, match
// (attributed per rule), cfg, and render spans on it. A nil track disables
// tracing; since a Track is single-goroutine, the engine must not be shared
// across goroutines while a track is set. RunSegment ignores this field and
// takes its track from the job, because segment jobs fan out goroutines over
// one shared engine.
func (e *Engine) SetTrace(tk *obs.Track) {
	e.trace = tk
}

// fileState tracks one file through the run.
type fileState struct {
	name  string
	src   string
	file  *cast.File
	ed    *transform.EditSet
	dirty bool
	trace *obs.Track
	// cfgs caches one control-flow graph per function for the current
	// parse. Both the CFG dots engine and the CTL verifier read through
	// cfg(); a reparse invalidates the cache with the tree. Before this
	// cache the CTL verifier rebuilt the graph per match — O(matches ×
	// function size) on match-dense files (BenchmarkCFGCache).
	cfgs map[*cast.FuncDef]*cfg.Graph
	// seg caches the file's function segmentation for finding identity;
	// built on the first check-rule match, invalidated with the parse.
	seg     *cast.Segmentation
	segDone bool
	// cands caches the matcher's candidate enumeration of the current
	// parse, shared by every rule and environment until the next reparse.
	cands *match.Cands
	// words, added and the texts still to scan hold, for rule pruning, a
	// superset of the identifier words of every text the file has had in
	// this run: an inherited binding may carry words from an earlier text
	// that a later rule's plus lines put back. words may alias the
	// caller's set (ParsedFile.Words) and is never written; newly seen
	// words go to added.
	words, added map[string]bool
	// unscanned lists texts whose words the set does not cover yet, and
	// rescan marks the current text as one; both are merged in before the
	// next rule tests the set.
	unscanned []string
	rescan    bool
}

// text returns the file's current text: the parsed source with the pending
// edits applied.
func (st *fileState) text() string {
	if !st.dirty {
		return st.src
	}
	return st.ed.Apply()
}

// mayMatch reports whether the prefilter lets the rule at position pos
// match the file's current text.
func (st *fileState) mayMatch(ix *index.Index, pos int) bool {
	if st.rescan {
		st.unscanned, st.rescan = append(st.unscanned, st.text()), false
	}
	if len(st.unscanned) > 0 {
		sp := st.trace.Start(obs.StagePrefilter).File(st.name)
		for _, text := range st.unscanned {
			if st.words == nil {
				st.words = index.ScanWords(text)
				continue
			}
			for w := range index.ScanWords(text) {
				st.add(w)
			}
		}
		st.unscanned = nil
		sp.End()
	}
	return ix.RuleMayMatch(pos, func(w string) bool { return st.words[w] || st.added[w] })
}

// add puts w in the word set.
func (st *fileState) add(w string) {
	if st.words[w] {
		return
	}
	if st.added == nil {
		st.added = map[string]bool{}
	}
	st.added[w] = true
}

// inserted records that the rule at position pos edited the file, whose
// pre-edit text is st.src (the rule re-parsed it). The set keeps that text
// and grows by the rule's plus-line atoms, or the edited text is marked
// for a rescan when the rule may insert words that are not statically
// known. crossFile reports that the run holds more than one file, so an
// inherited binding substituted on a plus line may carry another file's
// words.
func (st *fileState) inserted(ix *index.Index, pos int, crossFile bool) {
	if st.rescan {
		st.unscanned, st.rescan = append(st.unscanned, st.src), false
	}
	atoms, unknown, inherited := ix.RuleInserts(pos)
	if unknown || (inherited && crossFile) {
		st.rescan = true
		return
	}
	for _, w := range atoms {
		st.add(w)
	}
}

// candidates returns the shared candidate enumeration of the current parse.
func (st *fileState) candidates() *match.Cands {
	if st.cands == nil {
		st.cands = match.NewCands(st.file)
	}
	return st.cands
}

// segmentation lazily segments the current parse (nil for files without
// function definitions).
func (st *fileState) segmentation() *cast.Segmentation {
	if !st.segDone {
		sp := st.trace.Start(obs.StageSegment).File(st.name)
		st.seg = cast.SegmentFile(st.file)
		sp.End()
		st.segDone = true
	}
	return st.seg
}

// cfg returns the cached control-flow graph for a function of this file's
// current parse, building it on first use.
func (st *fileState) cfg(fd *cast.FuncDef) *cfg.Graph {
	if g, ok := st.cfgs[fd]; ok {
		return g
	}
	if st.cfgs == nil {
		st.cfgs = map[*cast.FuncDef]*cfg.Graph{}
	}
	sp := st.trace.Start(obs.StageCFG).File(st.name)
	if fd.Name != nil {
		sp.Func(fd.Name.Name)
	}
	g := cfg.Build(fd)
	sp.End()
	st.cfgs[fd] = g
	return g
}

func (e *Engine) parseOpts() cparse.Options {
	return cparse.Options{CPlusPlus: e.opts.CPlusPlus, Std: e.opts.Std, CUDA: e.opts.CUDA}
}

// ParsedFile pairs a source file with its parse, for callers that manage
// parsing themselves: the campaign engine parses each file once and shares
// the tree across every patch's engine, and cached runs skip parsing
// altogether. The File must have been produced by parsing Src with options
// matching the engine's dialect.
type ParsedFile struct {
	Name string
	Src  string
	File *cast.File
	// Words, when non-nil, is a superset of Src's identifier words
	// (index.ScanWords), which the caller already has from its file-level
	// prefilter; the engine reads it for rule pruning and never writes it.
	// Nil makes the engine scan Src itself when a rule needs the words.
	Words map[string]bool
}

// Run applies the patch to the files.
func (e *Engine) Run(files []SourceFile) (*Result, error) {
	parsed := make([]ParsedFile, 0, len(files))
	for _, f := range files {
		sp := e.trace.Start(obs.StageParse).File(f.Name)
		cf, err := cparse.Parse(f.Name, f.Src, e.parseOpts())
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", f.Name, err)
		}
		parsed = append(parsed, ParsedFile{Name: f.Name, Src: f.Src, File: cf})
	}
	res, err := e.RunParsed(parsed)
	if err != nil {
		return nil, err
	}
	res.Parses += len(files)
	dsp := e.trace.Start(obs.StageRender)
	res.Diffs = make(map[string]string, len(files))
	for _, f := range files {
		res.Diffs[f.Name] = diff.Unified("a/"+f.Name, "b/"+f.Name, f.Src, res.Outputs[f.Name])
	}
	dsp.End()
	return res, nil
}

// RunParsed is Run over pre-parsed files. The engine never mutates the
// given trees or their token files — edits accumulate in per-run EditSets,
// transformed text is re-parsed into fresh trees, and a rebind copies every
// node and token it changes — so one parse may be shared sequentially
// across any number of engine runs (and concurrently across engines, since
// matching only reads it). It returns outputs but no Diffs: a caller that
// emits a diff computes it from its own input.
func (e *Engine) RunParsed(files []ParsedFile) (*Result, error) {
	states := make([]*fileState, 0, len(files))
	for _, f := range files {
		st := &fileState{name: f.Name, src: f.Src, file: f.File, ed: transform.NewEditSet(f.File.Toks), trace: e.trace, words: f.Words}
		if f.Words == nil {
			st.unscanned = []string{f.Src}
		}
		states = append(states, st)
	}

	res := &Result{
		Outputs:    make(map[string]string, len(files)),
		Matched:    map[string]bool{},
		MatchCount: map[string]int{},
		final:      states,
		popts:      e.parseOpts(),
	}
	// Virtual rules: dependency atoms set by the caller.
	if err := ValidateDefines(e.patch, e.opts.Defines); err != nil {
		return nil, err
	}
	for _, d := range e.opts.Defines {
		res.Matched[d] = true
	}
	envs := []match.Env{{}}

	var finalizers []*smpl.Rule
	for _, rule := range e.patch.Rules {
		if rule.Kind == smpl.FinalizeRule {
			finalizers = append(finalizers, rule)
			continue
		}
		if !rule.Depends.Eval(res.Matched) {
			continue
		}
		var err error
		switch rule.Kind {
		case smpl.InitializeRule:
			err = e.runInit(rule)
		case smpl.ScriptRule:
			envs, err = e.runScript(rule, envs, res)
		case smpl.MatchRule:
			envs, err = e.runMatch(rule, envs, states, res)
		}
		if err != nil {
			return nil, err
		}
		if len(envs) > e.opts.MaxEnvs {
			envs = envs[:e.opts.MaxEnvs]
			res.EnvsTruncated = true
		}
	}
	for _, rule := range finalizers {
		if err := e.runInit(rule); err != nil {
			return nil, err
		}
	}

	rsp := e.trace.Start(obs.StageRender)
	for _, st := range states {
		res.Outputs[st.name] = st.text()
	}
	rsp.End()
	res.EnvCount = len(envs)
	res.Findings = analysis.Dedupe(res.Findings)
	return res, nil
}

// runInit executes an initialize/finalize rule once.
func (e *Engine) runInit(rule *smpl.Rule) error {
	if fn, ok := e.hosts[rule.Name]; ok {
		_, err := fn(nil)
		return err
	}
	_, err := e.interp.Exec(rule.Code, nil)
	if err != nil {
		return fmt.Errorf("rule %s: %w", rule.Name, err)
	}
	return nil
}

// runScript executes a script rule for every environment that can supply its
// inputs.
func (e *Engine) runScript(rule *smpl.Rule, envs []match.Env, res *Result) ([]match.Env, error) {
	var out []match.Env
	for _, env := range envs {
		locals := map[string]string{}
		missing := false
		for _, in := range rule.Inputs {
			b, ok := env[in.Rule+"."+in.Remote]
			if !ok {
				missing = true
				break
			}
			locals[in.Local] = b.Text
		}
		if missing {
			out = append(out, env)
			continue
		}
		outputs, err := e.execScript(rule, locals)
		if err != nil {
			if _, isKey := err.(*minipy.KeyError); isKey {
				// Python-side KeyError: this environment does not apply.
				out = append(out, env)
				continue
			}
			return nil, fmt.Errorf("script rule %s: %w", rule.Name, err)
		}
		next := env.Clone()
		for name, val := range outputs {
			next[rule.Name+"."+name] = val
		}
		res.Matched[rule.Name] = true
		res.MatchCount[rule.Name]++
		out = append(out, next)
	}
	return dedupEnvs(out), nil
}

func (e *Engine) execScript(rule *smpl.Rule, locals map[string]string) (map[string]match.Binding, error) {
	if fn, ok := e.hosts[rule.Name]; ok {
		raw, err := fn(locals)
		if err != nil {
			return nil, err
		}
		out := map[string]match.Binding{}
		for k, v := range raw {
			out[k] = match.NewValueBinding(cast.MetaIdentKind, v)
		}
		return out, nil
	}
	vals, err := e.interp.Exec(rule.Code, locals)
	if err != nil {
		return nil, err
	}
	out := map[string]match.Binding{}
	for k, v := range vals {
		kind := cast.MetaIdentKind
		switch v.Tag {
		case "type":
			kind = cast.MetaTypeKind
		case "pragmainfo":
			kind = cast.MetaPragmaInfoKind
		case "expr":
			kind = cast.MetaExprKind
		}
		out[k] = match.NewValueBinding(kind, v.Str)
	}
	return out, nil
}

// runMatch executes a match rule over all files for every environment.
func (e *Engine) runMatch(rule *smpl.Rule, envs []match.Env, states []*fileState, res *Result) ([]match.Env, error) {
	cr := e.compiled.rule(rule)
	if err := cr.quantifierErr(e.opts); err != nil {
		return nil, err
	}
	// Drop the files the rule provably cannot match before paying for their
	// reparse and candidate enumeration: a pruned file keeps its pending
	// edits until a rule that can fire on it, or the final render, needs
	// them.
	live := states
	ix := e.compiled.Prefilter
	if !e.opts.NoPrefilter && ix.RuleRequires(cr.pos) {
		live = make([]*fileState, 0, len(states))
		for _, st := range states {
			if st.mayMatch(ix, cr.pos) {
				live = append(live, st)
			}
		}
		if len(live) == 0 {
			e.trace.Start(obs.StageMatch).Rule(rule.Name).Outcome(obs.OutcomeSkip).End()
			return envs, nil
		}
	}
	// Earlier rules may have edited files; refresh parses lazily, here,
	// rather than eagerly after each transformation — so the output of the
	// last rule that can fire never needs to re-parse at all (it may use
	// constructs beyond our C++ subset, e.g. injected library macros).
	if err := e.reparse(live, res); err != nil {
		return nil, err
	}
	preMatches := res.MatchCount[rule.Name]
	msp := e.trace.Start(obs.StageMatch).Rule(rule.Name)
	defer func() { msp.Matches(res.MatchCount[rule.Name] - preMatches).End() }()
	preFindings := len(res.Findings)
	if rule.IsCheck() {
		defer func() {
			csp := e.trace.Start(obs.StageCheck).Rule(rule.Name)
			csp.Matches(len(res.Findings) - preFindings).End()
		}()
	}
	var out []match.Env
	anyMatch := false

envLoop:
	for _, env := range envs {
		inherited := match.Env{}
		missing := false
		for local, qual := range cr.inherits {
			b, ok := env[qual]
			if !ok {
				missing = true
				break
			}
			inherited[local] = b
		}
		if missing {
			out = append(out, env)
			continue
		}

		envMatched := false
		for _, st := range live {
			for _, mt := range e.matcher(cr, st, inherited).FindAll() {
				local, r := e.step(cr, st, &mt, inherited, len(out), &res.Findings)
				if r == stepCapped {
					res.EnvsTruncated = true
					break envLoop
				}
				if r == stepDropped {
					continue
				}
				envMatched = true
				anyMatch = true
				res.MatchCount[rule.Name]++
				next := env.Clone()
				for name, b := range local {
					next[rule.Name+"."+name] = b
				}
				out = append(out, next)
			}
		}
		if !envMatched {
			out = append(out, env)
		}
	}
	if anyMatch {
		res.Matched[rule.Name] = true
	}
	// Every live file was re-parsed clean above, so dirty now means this
	// rule edited it. The edits stay pending in the EditSet until the next
	// match rule that can fire forces a re-parse, or the final render
	// applies them.
	if !e.opts.NoPrefilter {
		for _, st := range live {
			if st.dirty {
				st.inserted(ix, cr.pos, len(states) > 1)
			}
		}
	}
	return dedupEnvs(out), nil
}

// matcher builds the rule's matcher over st's current parse, sharing the
// parse's candidate enumeration and control-flow graphs.
func (e *Engine) matcher(cr *compiledRule, st *fileState, inherited match.Env) *match.Matcher {
	m := &match.Matcher{
		Pat:        cr.rule.Pattern,
		Metas:      cr.metas,
		Code:       st.file,
		Inherited:  inherited,
		MaxMatches: e.opts.MaxMatchesPerRule,
		Cands:      st.candidates(),
	}
	if !e.opts.SeqDots {
		m.CFGs = st.cfg
	}
	return m
}

// stepResult is what step did with one match.
type stepResult int

const (
	stepKept    stepResult = iota // the match counts: its edits and finding are recorded
	stepDropped                   // CTL verification or an overlapping edit rejected it
	stepCapped                    // the caller already keeps MaxEnvs matches and must stop
)

// step takes one match of the rule through the sequence both match loops
// — runMatch over whole files, RunSegment over one segment — share: CTL
// filter, MaxEnvs cap, environment, edits, finding. kept is the number of
// matches the caller has kept so far. The returned environment is the
// match's bindings plus the inherited ones and the rule's fresh identifiers.
func (e *Engine) step(cr *compiledRule, st *fileState, mt *match.Match, inherited match.Env, kept int, findings *[]analysis.Finding) (match.Env, stepResult) {
	rule := cr.rule
	// The CFG dots engine enforces path constraints while matching;
	// re-verifying with the anchor-span heuristics of verifyCTL could wrongly
	// reject its cross-branch and back-edge matches.
	if e.opts.UseCTL && !cr.cfgPrimary(e.opts) && !e.verifyCTL(st, rule, mt) {
		return nil, stepDropped
	}
	// Clamp at the cap, not one past it, and stop before the match transforms
	// anything. The check sits after the CTL filter so a candidate that
	// verification would reject anyway cannot raise a spurious truncation,
	// and before withFresh, which advances the engine's fresh counters.
	if kept >= e.opts.MaxEnvs {
		return nil, stepCapped
	}
	// Inherited bindings participate in plus-line substitution and are
	// re-exported alongside this rule's own bindings.
	env := mt.Env
	if len(inherited) > 0 {
		env = env.Clone()
		for name, b := range inherited {
			if _, bound := env[name]; !bound {
				env[name] = b
			}
		}
	}
	env = e.withFresh(rule, env)
	if rule.Pattern.HasTransform {
		if !e.applyMatch(st, rule.Pattern, mt, env) {
			return nil, stepDropped // overlapping edit: skip this match
		}
		st.dirty = true
	}
	if rule.IsCheck() {
		*findings = append(*findings, makeFinding(rule, mt, env, st.file, st.segmentation(), st.src))
	}
	return env, stepKept
}

// withFresh extends a match environment with this rule's fresh identifiers,
// in a copy; env itself is returned when the rule declares none.
func (e *Engine) withFresh(rule *smpl.Rule, env match.Env) match.Env {
	out, cloned := env, false
	for _, md := range rule.Metas {
		if md.Kind != cast.MetaFreshIdentKind || len(md.Fresh) == 0 {
			continue
		}
		var sb strings.Builder
		for _, part := range md.Fresh {
			if part.Lit != "" {
				sb.WriteString(part.Lit)
			} else if b, ok := out[part.Ref]; ok {
				sb.WriteString(b.Text)
			}
		}
		name := sb.String()
		if n := e.fresh[name]; n > 0 {
			e.fresh[name] = n + 1
			name = fmt.Sprintf("%s_%d", name, n)
		} else {
			e.fresh[name] = 1
		}
		if !cloned {
			out, cloned = env.Clone(), true
		}
		out[md.Name] = match.NewValueBinding(cast.MetaFreshIdentKind, name)
	}
	return out
}

// reparse refreshes dirty files so subsequent rules see transformed code:
// by a rebind when the pending edits keep every token's kind, by a full
// parse otherwise.
func (e *Engine) reparse(states []*fileState, res *Result) error {
	popts := e.parseOpts()
	for _, st := range states {
		if !st.dirty {
			continue
		}
		newSrc := st.text()
		sp := e.trace.Start(obs.StageParse).File(st.name)
		if st.rebind(newSrc, popts) {
			sp.Outcome(obs.OutcomeRebind).End()
			res.Rebinds++
			continue
		}
		cf, err := cparse.Parse(st.name, newSrc, popts)
		sp.End()
		res.Parses++
		if err != nil {
			return reparseErr(st.name, newSrc, err)
		}
		st.install(newSrc, cf, false)
	}
	return nil
}

// rebind refreshes st's parse to text, its pending edits applied, without a
// full parse (cparse.RebindEdits). It reports false, changing nothing, when
// the edits do not keep every token's kind.
func (st *fileState) rebind(text string, popts cparse.Options) bool {
	cf, ok := cparse.RebindEdits(st.file, st.ed, text, popts)
	if ok {
		st.install(text, cf, true)
	}
	return ok
}

// install makes cf, the parse of src, the file's current parse. The
// artifacts derived from the old tree are dropped, except that with
// keepCFGs the control-flow graphs of functions cf shares with it survive:
// a graph is a function of its *FuncDef alone, and a rebind shares every
// function it did not touch.
func (st *fileState) install(src string, cf *cast.File, keepCFGs bool) {
	var cfgs map[*cast.FuncDef]*cfg.Graph
	if keepCFGs && len(st.cfgs) > 0 {
		for _, d := range cf.Decls {
			if fd, ok := d.(*cast.FuncDef); ok && st.cfgs[fd] != nil {
				if cfgs == nil {
					cfgs = map[*cast.FuncDef]*cfg.Graph{}
				}
				cfgs[fd] = st.cfgs[fd]
			}
		}
	}
	st.src = src
	st.file = cf
	st.ed = transform.NewEditSet(cf.Toks)
	st.dirty = false
	st.cfgs = cfgs
	st.cands = nil
	st.seg, st.segDone = nil, false
}

// reparseErr reports a transformed text that does not parse by the parse
// error's position and the offending line, not the whole text.
func reparseErr(name, src string, err error) error {
	line := 0
	var pe *cparse.ParseError
	var le *ctoken.LexError
	switch {
	case errors.As(err, &pe):
		line = pe.Pos.Line
	case errors.As(err, &le):
		line = le.Pos.Line
	}
	text, ok := lineOf(src, line)
	if !ok {
		return fmt.Errorf("reparsing %s after transformation: %w", name, err)
	}
	return fmt.Errorf("reparsing %s after transformation: %w\n\tline %d: %s", name, err, line, text)
}

// lineOf returns the 1-based line n of src, cut to 200 bytes.
func lineOf(src string, n int) (string, bool) {
	if n < 1 {
		return "", false
	}
	for ; n > 1; n-- {
		i := strings.IndexByte(src, '\n')
		if i < 0 {
			return "", false
		}
		src = src[i+1:]
	}
	if i := strings.IndexByte(src, '\n'); i >= 0 {
		src = src[:i]
	}
	if len(src) > 200 {
		src = src[:200] + "..."
	}
	return src, true
}

// dedupEnvs removes exact duplicate environments.
func dedupEnvs(envs []match.Env) []match.Env {
	seen := map[string]bool{}
	var out []match.Env
	for _, env := range envs {
		key := envKey(env)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, env)
	}
	return out
}

func envKey(env match.Env) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(env[k].Norm)
		sb.WriteByte(';')
	}
	return sb.String()
}

// substitute replaces metavariable references in plus-line text with their
// bound values in a single pass, so substituted values are never themselves
// rewritten (e.g. an expression-list value containing variable names that
// collide with other metavariables). A reference is a whole identifier word
// — a maximal run of [0-9A-Za-z_] — naming an unqualified binding;
// rule-qualified names ("r.x") never match a word.
func substitute(text string, env match.Env) string {
	if len(env) == 0 {
		return text
	}
	var sb strings.Builder
	last := 0
	for i := 0; i < len(text); {
		if !isWordByte(text[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(text) && isWordByte(text[j]) {
			j++
		}
		if b, ok := env[text[i:j]]; ok {
			if last == 0 {
				sb.Grow(len(text) + len(b.Text))
			}
			sb.WriteString(text[last:i])
			sb.WriteString(b.Text)
			last = j
		}
		i = j
	}
	if last == 0 {
		return text
	}
	sb.WriteString(text[last:])
	return sb.String()
}

// isWordByte reports whether c is an ASCII identifier character.
func isWordByte(c byte) bool {
	return c == '_' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}
