package core

import (
	"math/rand"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/match"
)

func TestSubstituteSinglePass(t *testing.T) {
	// el's value contains "x" and "y", which are themselves metavariables;
	// a naive sequential substitution would rewrite them again.
	env := match.Env{
		"el": match.NewValueBinding(cast.MetaExprListKind, "n, a, x, y"),
		"x":  match.NewValueBinding(cast.MetaExprKind, "0"),
		"y":  match.NewValueBinding(cast.MetaExprKind, "stream"),
		"k":  match.NewValueBinding(cast.MetaIdentKind, "saxpy"),
	}
	got := substitute("hipLaunchKernelGGL(k,x,y,el)", env)
	want := "hipLaunchKernelGGL(saxpy,0,stream,n, a, x, y)"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSubstituteWordBoundaries(t *testing.T) {
	env := match.Env{
		"f": match.NewValueBinding(cast.MetaIdentKind, "kernel"),
	}
	// f inside identifiers (v512_f, f_prime, leaf) must not be replaced
	got := substitute("f(v512_f, f_prime, leaf, f)", env)
	want := "kernel(v512_f, f_prime, leaf, kernel)"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestSubstituteLongestFirst(t *testing.T) {
	env := match.Env{
		"f":    match.NewValueBinding(cast.MetaIdentKind, "short"),
		"f512": match.NewValueBinding(cast.MetaFreshIdentKind, "long_one"),
	}
	got := substitute("f512 f", env)
	if got != "long_one short" {
		t.Errorf("got %q", got)
	}
}

func TestSubstituteQualifiedNamesExcluded(t *testing.T) {
	env := match.Env{
		"r.x": match.NewValueBinding(cast.MetaExprKind, "QUAL"),
		"x":   match.NewValueBinding(cast.MetaExprKind, "LOCAL"),
	}
	got := substitute("x", env)
	if got != "LOCAL" {
		t.Errorf("got %q", got)
	}
}

func TestSubstituteEmptyEnv(t *testing.T) {
	if got := substitute("unchanged text", match.Env{}); got != "unchanged text" {
		t.Errorf("got %q", got)
	}
}

// substituteRef is the regexp formulation substitute replaced: one
// alternation of every unqualified metavariable name, longest first, between
// word boundaries. It compiled a regexp per match; it stays here as the
// reference the word scan must equal.
func substituteRef(text string, env match.Env) string {
	names := make([]string, 0, len(env))
	for n := range env {
		if strings.Contains(n, ".") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return text
	}
	sort.Slice(names, func(i, j int) bool { return len(names[i]) > len(names[j]) })
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = regexp.QuoteMeta(n)
	}
	re := regexp.MustCompile(`\b(` + strings.Join(quoted, "|") + `)\b`)
	return re.ReplaceAllStringFunc(text, func(name string) string {
		return env[name].Text
	})
}

// TestSubstituteMatchesRegexpReference checks the word scan against the
// regexp reference on random plus-line texts and environments: names are
// identifiers (some prefixes or extensions of each other, some
// rule-qualified), texts mix those names with other words, digits,
// punctuation, whitespace and non-ASCII bytes, and values may contain names.
func TestSubstituteMatchesRegexpReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []string{"x", "x1", "x_", "_x", "xx", "el", "E", "e", "f512", "f", "k", "T", "S1", "r.x", "r.el", "0", "9x", "é"}
	seps := []string{"", " ", "(", ")", ",", "\n\t", ".", "->", "::", "#", "\"", "-", "é", "\x00"}
	for iter := 0; iter < 5000; iter++ {
		env := match.Env{}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			name := words[rng.Intn(len(words)-3)]
			val := ""
			for j, m := 0, rng.Intn(3); j < m; j++ {
				val += words[rng.Intn(len(words))] + seps[rng.Intn(len(seps))]
			}
			env[name] = match.NewValueBinding(cast.MetaExprKind, val)
		}
		var sb strings.Builder
		for i, n := 0, rng.Intn(12); i < n; i++ {
			sb.WriteString(seps[rng.Intn(len(seps))])
			sb.WriteString(words[rng.Intn(len(words))])
		}
		text := sb.String()
		if got, want := substitute(text, env), substituteRef(text, env); got != want {
			t.Fatalf("substitute(%q, %v) = %q, reference gives %q", text, env, got, want)
		}
	}
}

func TestSubstituteMultilineValue(t *testing.T) {
	env := match.Env{
		"SL": match.NewValueBinding(cast.MetaStmtListKind, "a();\n\tb();"),
	}
	got := substitute("T f (PL) { SL }", env)
	if !strings.Contains(got, "a();\n\tb();") {
		t.Errorf("got %q", got)
	}
}

// The "replayable refactorings" workflow from the paper's Discussion: the
// patch is the version-controlled artifact, re-applied as the base code
// evolves. Simulate evolution and replay.
func TestReplayableRefactoring(t *testing.T) {
	patch := `@mark@
@@
#pragma omp ...
{
+ PROFILE_SCOPE(__func__);
...
}
`
	v1 := "void f(int n){\n#pragma omp parallel\n{\nwork(n);\n}\n}\n"
	// evolution: a new function and a renamed call
	v2 := "void f(int n){\n#pragma omp parallel\n{\nwork_v2(n);\n}\n}\nvoid g(void){\n#pragma omp parallel\n{\nmore();\n}\n}\n"

	p := mustPatch(t, patch)
	r1, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: v1}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(r1.Outputs["a.c"], "PROFILE_SCOPE") != 1 {
		t.Fatalf("v1:\n%s", r1.Outputs["a.c"])
	}
	r2, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: v2}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(r2.Outputs["a.c"], "PROFILE_SCOPE") != 2 {
		t.Fatalf("replay on evolved code:\n%s", r2.Outputs["a.c"])
	}
}
