package ctoken

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/codegen"
)

// cudaSource is a codegen CUDA file, the shape the hipify campaign ports.
func cudaSource(seed int64) string {
	return codegen.CUDA(codegen.Config{Funcs: 6, StmtsPerFunc: 4, Seed: seed})
}

var cudaOpts = Options{CUDAChevrons: true}

func TestLexExactSize(t *testing.T) {
	for _, src := range []string{"", "x", "int main(void) { return 0; }\n", cudaSource(1)} {
		f := lexOK(t, src, cudaOpts)
		if len(f.Tokens) != cap(f.Tokens) {
			t.Errorf("len %d, cap %d for %d-byte source", len(f.Tokens), cap(f.Tokens), len(src))
		}
	}
}

// Returned tokens must not alias the scratch buffer a later Lex reuses.
func TestLexResultsIndependent(t *testing.T) {
	first := lexOK(t, cudaSource(1), cudaOpts)
	want := slices.Clone(first.Tokens)
	lexOK(t, "int y = 2;\n"+cudaSource(2), cudaOpts)
	if _, err := Lex("bad.c", "int x = `;", cudaOpts); err == nil {
		t.Fatal("want a lex error")
	}
	if !slices.Equal(first.Tokens, want) {
		t.Error("a later Lex changed the tokens an earlier one returned")
	}
}

func TestLexConcurrent(t *testing.T) {
	const n = 8
	srcs := make([]string, n)
	want := make([][]Token, n)
	for i := range srcs {
		srcs[i] = cudaSource(int64(i + 1))
		want[i] = lexOK(t, srcs[i], cudaOpts).Tokens
	}
	got := make([][]Token, n)
	var wg sync.WaitGroup
	for i := range srcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for range 20 {
				f, err := Lex(fmt.Sprintf("f%d.cu", i), srcs[i], cudaOpts)
				if err != nil {
					t.Error(err)
					return
				}
				got[i] = f.Tokens
			}
		}(i)
	}
	wg.Wait()
	for i := range srcs {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("file %d: concurrent Lex differs from sequential", i)
		}
	}
}

// After warm-up a Lex allocates its exact-size token array and little else.
func TestLexAllocatesOnce(t *testing.T) {
	src := cudaSource(3)
	f := lexOK(t, src, cudaOpts)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := Lex("a.cu", src, cudaOpts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLex := float64(after.TotalAlloc-before.TotalAlloc) / runs
	bound := 1.1*float64(len(f.Tokens))*float64(unsafe.Sizeof(Token{})) + 4096
	if perLex > bound {
		t.Errorf("Lex allocates %.0f B for %d tokens, want <= %.0f", perLex, len(f.Tokens), bound)
	}
}
