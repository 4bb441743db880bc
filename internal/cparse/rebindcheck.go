//go:build rebindcheck

package cparse

import (
	"fmt"
	"reflect"

	"repro/internal/cast"
)

// checkRebind makes every successful rebind also parse its tokens' text in
// full and panic unless the tokens and the tree are identical: the test
// oracle for the fast path, enabled with `go test -tags rebindcheck`.
const checkRebind = true

func mustMatchParse(got *cast.File, opts Options) {
	want, err := Parse(got.Name, got.Toks.Src, opts)
	if err != nil {
		panic(fmt.Sprintf("rebindcheck: %s: rebound a text that does not parse: %v", got.Name, err))
	}
	if !reflect.DeepEqual(got.Toks.Tokens, want.Toks.Tokens) {
		for i := range want.Toks.Tokens {
			if i >= len(got.Toks.Tokens) || got.Toks.Tokens[i] != want.Toks.Tokens[i] {
				panic(fmt.Sprintf("rebindcheck: %s: token %d differs from a full lex", got.Name, i))
			}
		}
		panic(fmt.Sprintf("rebindcheck: %s: token count differs from a full lex", got.Name))
	}
	if !reflect.DeepEqual(got.Decls, want.Decls) {
		panic(fmt.Sprintf("rebindcheck: %s: rebound tree differs from a full parse:\n%s\nwant:\n%s",
			got.Name, cast.Dump(got), cast.Dump(want)))
	}
}
