package cparse

import (
	"reflect"
	"testing"

	"repro/internal/cast"
	"repro/internal/ctoken"
	"repro/internal/transform"
)

// renameAndRebind replaces every identifier or directive token whose text
// is a key of renames the way a rule's "- old" / "+ new" edit does (a
// directive is a whole line, replaced on its own line), and refreshes the
// parse through RebindEdits. ok=false means the fast path declined;
// otherwise it returns the rebound tree and a full parse of the same text.
func renameAndRebind(t *testing.T, src string, renames map[string]string, opts Options) (got, want *cast.File, ok bool) {
	t.Helper()
	f, err := Parse("t.c", src, opts)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ed := transform.NewEditSet(f.Toks)
	for i, tk := range f.Toks.Tokens {
		to, hit := renames[tk.Text]
		switch {
		case hit && tk.Kind == ctoken.Ident:
			ed.DeleteRange(i, i)
			ed.Insert(i, transform.Inline, to)
		case hit && tk.Kind == ctoken.PP:
			ed.DeleteRange(i, i)
			ed.Insert(i, transform.BeforeOwnLine, to)
		}
	}
	text := ed.Apply()
	got, ok = RebindEdits(f, ed, text, opts)
	if !ok {
		return nil, nil, false
	}
	want, err = Parse("t.c", text, opts)
	if err != nil {
		t.Fatalf("rebound a text that does not parse: %v\n%s", err, text)
	}
	return got, want, true
}

func TestRebindEqualsFullParse(t *testing.T) {
	cxx := Options{CPlusPlus: true, Std: 17}
	cuda := Options{CUDA: true}
	for name, tc := range map[string]struct {
		src     string
		renames map[string]string
		opts    Options
	}{
		"call":           {"void f(void)\n{\n\tcudaFree(p);\n\tcudaFree(q);\n}\n", map[string]string{"cudaFree": "hipFree"}, Options{}},
		"type":           {"int g(void) { cudaStream_t s; cudaStream_t *t = 0, u; return (unsigned) x + sizeof(cudaStream_t) + sizeof(struct cudaStream_t); }\n", map[string]string{"cudaStream_t": "hipStream_t"}, Options{}},
		"param":          {"void k(cudaError_t e, int cudaN) { use(e, cudaN); }\n", map[string]string{"cudaError_t": "hipError_t", "cudaN": "n"}, Options{}},
		"member":         {"void m(struct s *p) { p->cudaField = p->x.cudaField; }\n", map[string]string{"cudaField": "hipField"}, Options{}},
		"label":          {"void l(void) { goto cuda_out; cuda_out: return; }\n", map[string]string{"cuda_out": "hip_out"}, Options{}},
		"opaque":         {"typedef struct { cudaEvent_t ev; } timer_t;\nstruct cudaBox { int x; };\nint y;\n", map[string]string{"cudaEvent_t": "hipEvent_t", "cudaBox": "hipBox"}, Options{}},
		"global":         {"cudaError_t last = cudaSuccess;\nint arr[CUDA_N];\n", map[string]string{"cudaError_t": "hipError_t", "cudaSuccess": "hipSuccess", "CUDA_N": "HIP_N"}, Options{}},
		"control":        {"int c(int n) { for (cudaIdx i = 0; i < n; i++) { if (cudaOk(i)) continue; else while (cudaBusy()) ; } switch (n) { case CUDA_A: break; default: do { n--; } while (cudaMore(n)); } return n ? cudaA : cudaB; }\n", map[string]string{"cudaIdx": "hipIdx", "cudaOk": "hipOk", "cudaBusy": "hipBusy", "CUDA_A": "HIP_A", "cudaMore": "hipMore", "cudaA": "hipA", "cudaB": "hipB"}, Options{}},
		"qualified":      {"void q(void) { ns::cudaThing x; std::vector<cudaThing> v; a = ns::cudaThing::make(); }\n", map[string]string{"cudaThing": "hipThing"}, cxx},
		"launch":         {"__global__ void kern(float *a) { a[0] = 1; }\nvoid h(void) { kern<<<grid, block>>>(cudaPtr, 2); }\n", map[string]string{"kern": "kernel2", "cudaPtr": "hipPtr", "grid": "g"}, cuda},
		"attr":           {"__attribute__((cuda_attr(cudaN))) void a(void) { }\n", map[string]string{"cuda_attr": "hip_attr", "cudaN": "hipN"}, Options{}},
		"longer":         {"void f(void) { x(a); y(bb); }\nvoid g(void) { z(ccc); }\n", map[string]string{"a": "aaaa", "bb": "b", "ccc": "cc"}, Options{}},
		"include":        {"#include <cuda.h>\n#include \"kern.h\"\nint x;\n", map[string]string{"#include <cuda.h>": "#include <hip/hip_runtime.h>", "#include \"kern.h\"": "#include <k.h>"}, Options{}},
		"directive kind": {"#include <cuda.h>\n#define N 4\nint x = N;\n", map[string]string{"#include <cuda.h>": "#pragma once", "#define N 4": "#include <n.h>"}, Options{}},
		"body pragma":    {"void f(int n) {\n#pragma omp parallel\n\t{ g(n); }\n#define M 2\n\tcudaSync();\n}\n", map[string]string{"#pragma omp parallel": "#pragma omp parallel for", "#define M 2": "#pragma acc kernels", "cudaSync": "hipSync"}, Options{}},
	} {
		got, want, ok := renameAndRebind(t, tc.src, tc.renames, tc.opts)
		if !ok {
			t.Errorf("%s: the fast path declined a kind-preserving rename", name)
			continue
		}
		if !reflect.DeepEqual(got.Toks.Tokens, want.Toks.Tokens) {
			t.Errorf("%s: rebound tokens differ from a full lex", name)
		}
		if !reflect.DeepEqual(got.Decls, want.Decls) {
			t.Errorf("%s: rebound tree differs from a full parse:\n%s\nwant:\n%s", name, cast.Dump(got), cast.Dump(want))
		}
	}
}

// A rename the parser may branch on, or one that would lex differently in
// place, is declined: the caller then parses in full.
func TestRebindDeclines(t *testing.T) {
	for name, tc := range map[string]struct {
		src     string
		renames map[string]string
		opts    Options
	}{
		"to keyword":     {"void f(void) { T x; }\n", map[string]string{"T": "int"}, Options{}},
		"from keyword":   {"void f(void) { int x; }\n", map[string]string{"int": "T"}, Options{}},
		"to attribute":   {"void f(void) { g(x); }\n", map[string]string{"g": "__attribute__"}, Options{}},
		"string prefix":  {"void f(void) { p(W\"s\"); }\n", map[string]string{"W": "L"}, Options{}},
		"lambda capture": {"void f(void) { auto g = [cudaX](int a) { return a; }; }\n", map[string]string{"cudaX": "hipX"}, Options{CPlusPlus: true, Std: 17}},
		"splits a token": {"void f(void) { a << b; }\n", map[string]string{"b": "<b"}, Options{}},
		"continued line": {"#define A 1\nint x;\n", map[string]string{"#define A 1": "#define A \\"}, Options{}},
		"chevrons on":    {"#define L 1\nint x;\n", map[string]string{"#define L 1": "#define L k<<<1, 1>>>"}, Options{}},
	} {
		if _, _, ok := renameAndRebind(t, tc.src, tc.renames, tc.opts); ok {
			t.Errorf("%s: the fast path accepted an edit it must decline", name)
		}
	}
}

// A rebind shares every subtree that holds no changed token and never
// modifies the tree or tokens it was given.
func TestRebindSharesAndPreserves(t *testing.T) {
	src := "void keep(void) { a(1); }\nvoid edit(void) { cudaFree(p); }\nint tail;\n"
	f, err := Parse("t.c", src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, _ := Parse("t.c", src, Options{})
	ed := transform.NewEditSet(f.Toks)
	for i, tk := range f.Toks.Tokens {
		if tk.Text == "cudaFree" {
			ed.DeleteRange(i, i)
			ed.Insert(i, transform.Inline, "hipFree")
		}
	}
	got, ok := RebindEdits(f, ed, ed.Apply(), Options{})
	if !ok {
		t.Fatal("RebindEdits declined")
	}
	if got.Decls[0] != f.Decls[0] || got.Decls[2] != f.Decls[2] {
		t.Error("untouched declarations were copied, not shared")
	}
	if got.Decls[1] == f.Decls[1] {
		t.Error("the edited function was shared, not copied")
	}
	if !reflect.DeepEqual(f.Toks.Tokens, before.Toks.Tokens) || !reflect.DeepEqual(f.Decls, before.Decls) {
		t.Error("RebindEdits modified the tree or tokens it was given")
	}
}
