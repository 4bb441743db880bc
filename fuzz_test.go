package sempatch

// Fuzz targets for the three front-end invariants the engine leans on:
//
//   - FuzzSmPLParse: the .cocci parser never panics, and every patch it
//     accepts survives the renderer's parse→print→parse fixpoint.
//   - FuzzCParse: the C/C++/CUDA parser never panics on arbitrary input,
//     in any dialect.
//   - FuzzSegmentSplice: function-granular segmentation is lossless — for
//     every file it segments, splicing the raw pieces reproduces the input
//     byte for byte (the invariant the incremental cache's correctness
//     rests on).
//   - FuzzRebind: renaming identifiers in a parsed file and refreshing the
//     parse by rebinding (cparse.RebindEdits) either declines or yields
//     exactly the tokens and tree of a full parse of the edited text.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/; CI replays them as part
// of the ordinary test run and additionally fuzzes each target briefly.

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/ctoken"
	"repro/internal/smpl"
	"repro/internal/transform"
)

func FuzzSmPLParse(f *testing.F) {
	f.Add("@@\nexpression e;\n@@\n- foo(e)\n+ bar(e)\n")
	f.Add("virtual fix\n\n@r depends on fix@\nidentifier i;\ntype T;\n@@\n- T i = old();\n+ T i = new();\n  ...\n")
	f.Add("@s@\n@@\n- a();\n...\nwhen != b(x)\n+ c();\n")
	f.Add("@script:python p@\nx << r.i;\ny;\n@@\ny = x + \"_v2\"\n")
	f.Add("// gocci:check id=chk severity=error msg=\"bad call of e\"\n@c@\nexpression e;\nposition p;\n@@\n* risky(e)\n")
	f.Add("@s@\nexpression x;\n@@\n* x = malloc(1);\n... when != free(x)\nwhen exists\n* return ...;\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := smpl.ParsePatch("fuzz.cocci", src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must round-trip through the renderer.
		text := smpl.Render(p)
		p2, err := smpl.ParsePatch("fuzz.cocci", text)
		if err != nil {
			t.Fatalf("rendered patch does not re-parse: %v\nrendered:\n%s", err, text)
		}
		if again := smpl.Render(p2); again != text {
			t.Fatalf("render is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}

// cparseSeeds seeds FuzzCParse and, with its on-disk corpus, FuzzRebind.
var cparseSeeds = []struct {
	src     string
	dialect uint8
}{
	{"int f(int n) {\n    return n + 1;\n}\n", 0},
	{"template <typename T> T id(T x) { return x; }\n", 1},
	{"__global__ void k(float *a) { a[0] = 1.0f; }\nvoid h() { k<<<1, 2>>>(p); }\n", 3},
	{"#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = b[i];\n", 0},
}

// fuzzDialect maps a fuzzer byte to parser options.
func fuzzDialect(dialect uint8) cparse.Options {
	opts := cparse.Options{
		CPlusPlus: dialect&1 != 0,
		CUDA:      dialect&2 != 0,
	}
	if opts.CPlusPlus {
		opts.Std = 23
	}
	return opts
}

func FuzzCParse(f *testing.F) {
	for _, s := range cparseSeeds {
		f.Add(s.src, s.dialect)
	}
	f.Fuzz(func(t *testing.T, src string, dialect uint8) {
		_, _ = cparse.Parse("fuzz.c", src, fuzzDialect(dialect)) // must not panic
	})
}

// FuzzRebind renames identifiers of a parsed file the way a rule's minus
// and plus lines do — one token at a time, or a whole same-line token run
// retyped with its renames — to names drawn from the file, keywords,
// encoding prefixes and variants of the old name, and swaps directive
// lines for other directives (continued, chevron-bearing or not one at
// all). The rebind must decline
// or equal a full parse of the edited text, token for token and node for
// node. Seeds are FuzzCParse's, in-code and on disk.
func FuzzRebind(f *testing.F) {
	for _, s := range cparseSeeds {
		f.Add(s.src, s.dialect, uint64(1))
	}
	paths, _ := filepath.Glob("testdata/fuzz/FuzzCParse/*")
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		if len(lines) != 3 {
			f.Fatalf("%s: unexpected corpus layout", path)
		}
		src, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		d, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "byte("), ")"))
		if err1 != nil || err2 != nil || len(d) != 1 {
			f.Fatalf("%s: unreadable corpus entry", path)
		}
		for pick := uint64(1); pick <= 3; pick++ {
			f.Add(src, d[0], pick)
		}
	}
	f.Add("#include <cuda.h>\nvoid f(cudaStream_t s) {\n#pragma omp parallel\n\tcudaFree(p);\n\tx = cudaMemcpy(a, b, n) + CUDA_OK;\n}\n", uint8(2), uint64(7))
	f.Fuzz(func(t *testing.T, src string, dialect uint8, pick uint64) {
		opts := fuzzDialect(dialect)
		file, err := cparse.Parse("fuzz.c", src, opts)
		if err != nil {
			return
		}
		toks := file.Toks.Tokens
		var names []string
		for _, tk := range toks {
			if tk.Kind == ctoken.Ident {
				names = append(names, tk.Text)
			}
		}
		if len(names) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(pick)))
		rename := func(old string) string {
			switch rng.Intn(8) {
			case 0:
				return names[rng.Intn(len(names))]
			case 1:
				return []string{"int", "struct", "if", "sizeof", "return", "__global__", "typedef"}[rng.Intn(7)]
			case 2:
				return []string{"__attribute__", "L", "u8", "R"}[rng.Intn(4)]
			case 3:
				return old + "_t"
			case 4:
				return "_" + old
			case 5:
				return "x"
			default:
				return old + "2"
			}
		}
		directives := []string{"#include <hip/hip_runtime.h>", "#pragma omp parallel for", "#pragma once",
			"#define N 8", "#define C \\", "#define K k<<<1, 1>>>", "#if 0", "# include \"x.h\"", "int not_a_directive;"}
		ed := transform.NewEditSet(file.Toks)
		for i := 0; i < len(toks)-1; i++ {
			if toks[i].Kind == ctoken.PP && rng.Intn(3) == 0 {
				ed.DeleteRange(i, i)
				ed.Insert(i, transform.BeforeOwnLine, directives[rng.Intn(len(directives))])
				continue
			}
			if toks[i].Kind != ctoken.Ident || rng.Intn(3) != 0 {
				continue
			}
			if rng.Intn(2) == 0 {
				ed.DeleteRange(i, i)
				ed.Insert(i, transform.Inline, rename(toks[i].Text))
				continue
			}
			// Retype a run of up to four tokens on the line, renaming its
			// identifiers.
			j := i
			for j+1 < len(toks)-1 && j-i < 3 && !strings.Contains(toks[j+1].WS, "\n") {
				j++
			}
			var sb strings.Builder
			for k := i; k <= j; k++ {
				if k > i {
					sb.WriteString(toks[k].WS)
				}
				if toks[k].Kind == ctoken.Ident && rng.Intn(2) == 0 {
					sb.WriteString(rename(toks[k].Text))
				} else {
					sb.WriteString(toks[k].Text)
				}
			}
			ed.DeleteRange(i, j)
			ed.Insert(i, transform.Inline, sb.String())
			i = j
		}
		if ed.Empty() {
			return
		}
		text := ed.Apply()
		got, ok := cparse.RebindEdits(file, ed, text, opts)
		if !ok {
			return
		}
		want, err := cparse.Parse("fuzz.c", text, opts)
		if err != nil {
			t.Fatalf("rebound a text that does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(got.Toks.Tokens, want.Toks.Tokens) {
			t.Fatalf("rebound tokens differ from a full lex of\n%s", text)
		}
		if !reflect.DeepEqual(got.Decls, want.Decls) {
			t.Fatalf("rebound tree differs from a full parse of\n%s\ngot:\n%s\nwant:\n%s", text, cast.Dump(got), cast.Dump(want))
		}
	})
}

func FuzzSegmentSplice(f *testing.F) {
	f.Add("int a;\n\nint f(void) {\n    return a;\n}\n\nstatic void g(int x) {\n    use(x);\n}\n")
	f.Add("#include <x.h>\nvoid only(void) {}\n")
	f.Add("int f(void){return 0;} int g(void){return 1;}\n")
	f.Fuzz(func(t *testing.T, src string) {
		file, err := cparse.Parse("fuzz.c", src, cparse.Options{})
		if err != nil {
			return
		}
		seg := cast.SegmentFile(file)
		if seg == nil {
			return
		}
		gaps := make([]string, len(seg.Funcs)+1)
		funcs := make([]string, len(seg.Funcs))
		for i := range gaps {
			gaps[i] = seg.GapRaw(i)
		}
		for i := range seg.Funcs {
			funcs[i] = seg.Funcs[i].Raw()
		}
		if got := seg.Splice(gaps, funcs); got != src {
			t.Fatalf("splice of raw segments is not byte-identical:\ngot:\n%q\nwant:\n%q\nfirst diff at %d",
				got, src, firstDiff(got, src))
		}
	})
}

func firstDiff(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestFuzzSeedCorpusReplay makes the on-disk seed corpus part of the
// ordinary (non-fuzz) test run even on toolchains that skip corpus replay,
// by checking the directories exist and are non-empty. The actual replay
// happens in the Fuzz* functions above, which `go test` runs over every
// seed without -fuzz.
func TestFuzzSeedCorpusReplay(t *testing.T) {
	for _, name := range []string{"FuzzSmPLParse", "FuzzCParse", "FuzzSegmentSplice"} {
		entries, err := fuzzDirEntries(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if entries == 0 {
			t.Errorf("testdata/fuzz/%s has no seed corpus entries", name)
		}
	}
}

func fuzzDirEntries(name string) (int, error) {
	ents, err := os.ReadDir("testdata/fuzz/" + name)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			n++
		}
	}
	return n, nil
}
