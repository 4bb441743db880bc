package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/smpl"
)

// ValidateDefines checks that every define names a virtual declared in the
// patch — the misconfiguration Engine.Run rejects. Callers that apply one
// patch many times (the batch subsystem, CLI front ends) validate once up
// front instead of reporting the same error per file.
func ValidateDefines(patch *smpl.Patch, defines []string) error {
	declared := map[string]bool{}
	for _, v := range patch.Virtuals {
		declared[v] = true
	}
	for _, d := range defines {
		if !declared[d] {
			return fmt.Errorf("define %q is not declared virtual in %s", d, patch.Name)
		}
	}
	return nil
}

// Compiled holds the read-only artifacts an engine derives from a parsed
// patch before matching: per-rule metavariable lookup tables and inheritance
// maps. Building them is cheap for one file but adds up over a large corpus,
// and more importantly a Compiled value is immutable after Compile returns,
// so one instance can back any number of Engines running concurrently — the
// batch subsystem compiles once and shares the result across its worker
// pool.
type Compiled struct {
	// Patch is the parsed patch the artifacts were derived from. Treated as
	// read-only from here on.
	Patch *smpl.Patch
	// Prefilter is the required-atom index derived from the patch: it
	// answers from raw bytes whether any rule could fire on a file, letting
	// the batch subsystem skip parsing files that provably cannot match.
	Prefilter *index.Index
	// Keyed by rule identity, not name: the parser does not reject
	// duplicate rule names, and conflating two rules' metavariable tables
	// would silently corrupt matching.
	rules map[*smpl.Rule]*compiledRule
}

// compiledRule caches what runMatch would otherwise rebuild per run.
type compiledRule struct {
	// rule is the rule these artifacts were derived from.
	rule *smpl.Rule
	// pos is the rule's position in the patch, its key in the prefilter.
	pos   int
	metas *smpl.MetaTable
	// inherits maps a local metavariable name to the qualified
	// "rule.remote" environment key it is bound from.
	inherits map[string]string
	// cfgEligible reports that the CFG path engine can take the pattern
	// (match.CFGEligible); unless Options.SeqDots opts out, it is the
	// rule's dots engine.
	cfgEligible bool
	// quantTop and quantNested locate `when strict`/`when forall` dots:
	// at the pattern's top level, or nested inside an anchor.
	quantTop, quantNested bool
}

// quantifierErr refuses to degrade `when strict`/`when forall` silently to
// existential matching: they are path quantifiers only the CFG engine can
// decide, so a quantified dots on a fallback path (or nested inside an
// anchor, where matching is syntactic even under the CFG engine) is an
// error, not a weaker match. It depends only on the rule and the options,
// never on the file.
func (cr *compiledRule) quantifierErr(opts Options) error {
	if (cr.quantTop && !cr.cfgPrimary(opts)) || cr.quantNested {
		return fmt.Errorf(
			"rule %s: `when strict`/`when forall` requires the CFG dots engine, which cannot handle this pattern (quantified dots must be at the top level of a pattern without statement-list metavariables, compound anchors, or --seq-dots)",
			cr.rule.Name)
	}
	return nil
}

// cfgPrimary reports that the CFG dots engine matches the rule under opts,
// so it enforces path constraints itself.
func (cr *compiledRule) cfgPrimary(opts Options) bool {
	return !opts.SeqDots && cr.cfgEligible
}

// Compile derives the per-rule matching artifacts from a parsed patch. The
// result is safe for concurrent use by multiple Engines.
func Compile(patch *smpl.Patch) *Compiled {
	c := &Compiled{
		Patch:     patch,
		Prefilter: index.Build(patch),
		rules:     make(map[*smpl.Rule]*compiledRule, len(patch.Rules)),
	}
	for i, rule := range patch.Rules {
		cr := &compiledRule{rule: rule, pos: i, metas: smpl.NewMetaTable(rule.Metas), inherits: map[string]string{}}
		for _, md := range rule.Metas {
			if md.FromRule != "" {
				cr.inherits[md.Name] = md.FromRule + "." + md.RemoteName
			}
		}
		cr.cfgEligible = match.CFGEligible(rule.Pattern, cr.metas)
		cr.quantTop, cr.quantNested = quantifiedDots(rule.Pattern)
		c.rules[rule] = cr
	}
	return c
}

// rule returns the compiled artifacts for a rule.
func (c *Compiled) rule(r *smpl.Rule) *compiledRule {
	return c.rules[r]
}
