package obs

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// StageStat aggregates one stage across a trace. Total is wall time inside
// spans of the stage; Self subtracts time spent in nested child spans, so
// summing Self over all stages accounts for the traced wall time exactly
// once (the "file" umbrella span's self-time is pipeline glue).
type StageStat struct {
	Stage string
	Count int
	Total time.Duration
	Self  time.Duration
}

// RuleStat attributes match time to a single rule.
type RuleStat struct {
	Rule    string
	Spans   int // match spans recorded for the rule
	Pruned  int // spans the prefilter skipped (OutcomeSkip): no reparse, no candidates
	Fired   int // spans with at least one match
	Matches int // total matches
	Total   time.Duration
}

// Profile is the aggregate view of one trace, feeding the `--profile` table
// and the serve stage histograms.
type Profile struct {
	Wall   time.Duration // earliest span start to latest span end
	Spans  int
	Stages []StageStat // sorted by Self descending
	Rules  []RuleStat  // sorted by Total descending

	// Cache outcome breakdown, split file-level vs function-level (a span
	// carrying a Func name is a function-cache lookup).
	FileCacheHits, FileCacheMisses int
	FuncCacheHits, FuncCacheMisses int
	// Prefilter decisions, file-level vs per-function-segment (a span
	// carrying a Func name is a segment decision).
	PrefilterSkips, PrefilterPasses         int
	FuncPrefilterSkips, FuncPrefilterPasses int
	// Parses counts full parses (parse spans without an outcome) and
	// Rebinds the parse refreshes that rebound the previous tree instead.
	Parses, Rebinds int
	// Findings counts check-rule reports emitted during the trace (the sum
	// of "check" span match counters), with a per-rule breakdown.
	Findings       int
	FindingsByRule map[string]int
}

// Profile aggregates the trace. Call after the traced run completes. Safe on
// a nil tracer (returns an empty profile).
func (t *Tracer) Profile() *Profile {
	p := &Profile{}
	if t == nil {
		return p
	}
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()

	stages := map[string]*StageStat{}
	rules := map[string]*RuleStat{}
	var lo, hi time.Duration = -1, 0
	for _, tk := range tracks {
		// child durations roll up into the parent's child-time so self =
		// dur - childTime without a second pass.
		child := make([]time.Duration, len(tk.spans))
		for _, sp := range tk.spans {
			end := sp.end
			if end < sp.start {
				end = sp.start
			}
			dur := end - sp.start
			if sp.parent >= 0 {
				child[sp.parent] += dur
			}
			if lo < 0 || sp.start < lo {
				lo = sp.start
			}
			if end > hi {
				hi = end
			}
		}
		for i, sp := range tk.spans {
			end := sp.end
			if end < sp.start {
				end = sp.start
			}
			dur := end - sp.start
			self := dur - child[i]
			if self < 0 {
				self = 0
			}
			p.Spans++
			ss := stages[sp.stage]
			if ss == nil {
				ss = &StageStat{Stage: sp.stage}
				stages[sp.stage] = ss
			}
			ss.Count++
			ss.Total += dur
			ss.Self += self

			switch sp.stage {
			case StageMatch:
				if sp.rule != "" {
					rs := rules[sp.rule]
					if rs == nil {
						rs = &RuleStat{Rule: sp.rule}
						rules[sp.rule] = rs
					}
					rs.Spans++
					if sp.outcome == OutcomeSkip {
						rs.Pruned++
					}
					rs.Matches += sp.matches
					if sp.matches > 0 {
						rs.Fired++
					}
					rs.Total += dur
				}
			case StageCacheRead:
				switch {
				case sp.fn != "" && sp.outcome == OutcomeHit:
					p.FuncCacheHits++
				case sp.fn != "" && sp.outcome == OutcomeMiss:
					p.FuncCacheMisses++
				case sp.outcome == OutcomeHit:
					p.FileCacheHits++
				case sp.outcome == OutcomeMiss:
					p.FileCacheMisses++
				}
			case StagePrefilter:
				switch {
				case sp.fn != "" && sp.outcome == OutcomeSkip:
					p.FuncPrefilterSkips++
				case sp.fn != "" && sp.outcome == OutcomePass:
					p.FuncPrefilterPasses++
				case sp.outcome == OutcomeSkip:
					p.PrefilterSkips++
				case sp.outcome == OutcomePass:
					p.PrefilterPasses++
				}
			case StageParse:
				switch sp.outcome {
				case "":
					p.Parses++
				case OutcomeRebind:
					p.Rebinds++
				}
			case StageCheck:
				p.Findings += sp.matches
				if sp.rule != "" && sp.matches > 0 {
					if p.FindingsByRule == nil {
						p.FindingsByRule = map[string]int{}
					}
					p.FindingsByRule[sp.rule] += sp.matches
				}
			}
		}
	}
	if lo > 0 || hi > 0 {
		p.Wall = hi - lo
	}
	for _, ss := range stages {
		p.Stages = append(p.Stages, *ss)
	}
	sort.Slice(p.Stages, func(i, j int) bool {
		if p.Stages[i].Self != p.Stages[j].Self {
			return p.Stages[i].Self > p.Stages[j].Self
		}
		return p.Stages[i].Stage < p.Stages[j].Stage
	})
	for _, rs := range rules {
		p.Rules = append(p.Rules, *rs)
	}
	sort.Slice(p.Rules, func(i, j int) bool {
		if p.Rules[i].Total != p.Rules[j].Total {
			return p.Rules[i].Total > p.Rules[j].Total
		}
		return p.Rules[i].Rule < p.Rules[j].Rule
	})
	return p
}

// StageSeconds returns per-stage self-time in seconds, the shape the serve
// histograms observe.
func (p *Profile) StageSeconds() map[string]float64 {
	out := make(map[string]float64, len(p.Stages))
	for _, ss := range p.Stages {
		out[ss.Stage] = ss.Self.Seconds()
	}
	return out
}

// Format renders the aggregate table `gocci --profile` prints: self-time per
// stage, per-rule prune/fire/time, full parses vs rebinds, the cache hit
// breakdown, and prefilter skip savings.
func (p *Profile) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "wall %s over %d spans\n", round(p.Wall), p.Spans)
	sb.WriteString("stage         count      total       self   self%\n")
	for _, ss := range p.Stages {
		pct := 0.0
		if p.Wall > 0 {
			pct = 100 * float64(ss.Self) / float64(p.Wall)
		}
		fmt.Fprintf(&sb, "%-12s %6d %10s %10s  %5.1f%%\n",
			ss.Stage, ss.Count, round(ss.Total), round(ss.Self), pct)
	}
	if len(p.Rules) > 0 {
		sb.WriteString("rule                        runs pruned  fired  matches       time\n")
		for _, rs := range p.Rules {
			fmt.Fprintf(&sb, "%-26s %6d %6d %6d %8d %10s\n",
				rs.Rule, rs.Spans, rs.Pruned, rs.Fired, rs.Matches, round(rs.Total))
		}
		for _, rs := range p.Rules {
			switch {
			case rs.Fired > 0:
			case rs.Pruned == rs.Spans:
				fmt.Fprintf(&sb, "rule %s never fired (pruned by the prefilter in all %d runs)\n", rs.Rule, rs.Spans)
			default:
				fmt.Fprintf(&sb, "rule %s never fired\n", rs.Rule)
			}
		}
	}
	if p.Findings > 0 {
		rules := make([]string, 0, len(p.FindingsByRule))
		for r := range p.FindingsByRule {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		fmt.Fprintf(&sb, "findings: %d", p.Findings)
		for i, r := range rules {
			if i == 0 {
				sb.WriteString(" (")
			} else {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%s %d", r, p.FindingsByRule[r])
		}
		if len(rules) > 0 {
			sb.WriteString(")")
		}
		sb.WriteString("\n")
	}
	if p.Parses+p.Rebinds > 0 {
		fmt.Fprintf(&sb, "parse: %d full, %d rebound\n", p.Parses, p.Rebinds)
	}
	if n := p.FileCacheHits + p.FileCacheMisses; n > 0 {
		fmt.Fprintf(&sb, "file cache: %d hits / %d lookups\n", p.FileCacheHits, n)
	}
	if n := p.FuncCacheHits + p.FuncCacheMisses; n > 0 {
		fmt.Fprintf(&sb, "func cache: %d hits / %d lookups\n", p.FuncCacheHits, n)
	}
	if n := p.PrefilterSkips + p.PrefilterPasses; n > 0 {
		fmt.Fprintf(&sb, "prefilter: skipped %d of %d files before parsing\n", p.PrefilterSkips, n)
	}
	if n := p.FuncPrefilterSkips + p.FuncPrefilterPasses; n > 0 {
		fmt.Fprintf(&sb, "segment prefilter: skipped %d of %d segments before matching\n", p.FuncPrefilterSkips, n)
	}
	return sb.String()
}

// round trims a duration for table display.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}
