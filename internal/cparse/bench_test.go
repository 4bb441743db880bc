package cparse

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/ctoken"
)

// benchSource is a codegen CUDA file, the shape a hipify port lexes and
// parses (and re-parses after each editing rule).
var benchSource = codegen.CUDA(codegen.Config{Funcs: 8, StmtsPerFunc: 4, Seed: 1})

// BenchmarkLex measures the lexer alone over benchSource.
func BenchmarkLex(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchSource)))
	for b.Loop() {
		if _, err := ctoken.Lex("bench.cu", benchSource, ctoken.Options{CUDAChevrons: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParse measures Parse (lex plus parse) over benchSource.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	b.SetBytes(int64(len(benchSource)))
	for b.Loop() {
		if _, err := Parse("bench.cu", benchSource, Options{CUDA: true}); err != nil {
			b.Fatal(err)
		}
	}
}
