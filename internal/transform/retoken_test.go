package transform

import (
	"reflect"
	"testing"

	"repro/internal/ctoken"
)

// retoken applies edit to a lex of src and derives the tokens of the result.
func retoken(t *testing.T, src string, edit func(e *EditSet, f *ctoken.File)) (got *ctoken.File, changed []int, text string, ok bool) {
	t.Helper()
	f := lexed(t, src)
	e := NewEditSet(f)
	edit(e, f)
	text = e.Apply()
	got, changed, ok = e.Retoken(text, ctoken.Options{})
	return got, changed, text, ok
}

// replace swaps the tokens [first,last] for text, as a rule's minus and
// plus lines do.
func replace(e *EditSet, first, last int, place Where, text string) {
	e.DeleteRange(first, last)
	e.Insert(first, place, text)
}

func TestRetokenEqualsLex(t *testing.T) {
	for name, tc := range map[string]struct {
		src  string
		edit func(e *EditSet, f *ctoken.File)
		want []int
	}{
		"renames on one line": {"a = foo(b) + foo(c);\nfoo(d);\n", func(e *EditSet, f *ctoken.File) {
			for i, tk := range f.Tokens {
				if tk.Text == "foo" {
					replace(e, i, i, Inline, "hipFooLonger")
				}
			}
		}, []int{2, 7, 12}},
		"call with interior whitespace": {"x;\ncudaMemcpy(a, b, n);\ny;\n", func(e *EditSet, f *ctoken.File) {
			first := findTok(f, "cudaMemcpy")
			replace(e, first, first+7, Inline, "hipMemcpy(a, b, n)")
		}, []int{2}},
		"whole-line declaration": {"{\n\t__half h;\n\tint k;\n}\n", func(e *EditSet, f *ctoken.File) {
			first := findTok(f, "__half")
			replace(e, first, first+2, BeforeOwnLine, "rocblas_half h;")
		}, []int{1}},
		"shrink after multi-line comment": {"/* a\n b */ longname(x); y();\n", func(e *EditSet, f *ctoken.File) {
			replace(e, 0, 0, Inline, "s")
		}, []int{0}},
	} {
		got, changed, text, ok := retoken(t, tc.src, tc.edit)
		if !ok {
			t.Errorf("%s: declined a same-kinds replacement", name)
			continue
		}
		want := lexed(t, text)
		if !reflect.DeepEqual(got.Tokens, want.Tokens) || got.Src != text {
			t.Errorf("%s: derived tokens differ from a lex of\n%s", name, text)
		}
		if !reflect.DeepEqual(changed, tc.want) {
			t.Errorf("%s: changed = %v, want %v", name, changed, tc.want)
		}
	}
}

func TestRetokenDeclines(t *testing.T) {
	for name, edit := range map[string]func(e *EditSet, f *ctoken.File){
		"insertion only": func(e *EditSet, f *ctoken.File) { e.Insert(0, BeforeOwnLine, "x();") },
		"deletion only":  func(e *EditSet, f *ctoken.File) { e.DeleteRange(0, 3) },
		"kind change":    func(e *EditSet, f *ctoken.File) { replace(e, 2, 2, Inline, "42") },
		"punct change":   func(e *EditSet, f *ctoken.File) { replace(e, 1, 1, Inline, "+=") },
		"more tokens":    func(e *EditSet, f *ctoken.File) { replace(e, 2, 2, Inline, "g(1)") },
		"whitespace":     func(e *EditSet, f *ctoken.File) { replace(e, 2, 5, Inline, "g ( b )") },
		"inline after":   func(e *EditSet, f *ctoken.File) { e.DeleteRange(2, 2); e.Insert(2, InlineAfter, "g") },
		"two at anchor":  func(e *EditSet, f *ctoken.File) { replace(e, 2, 2, Inline, "g"); e.Insert(2, Inline, "h") },
	} {
		if _, _, _, ok := retoken(t, "a = f(b);\n", edit); ok {
			t.Errorf("%s: accepted an edit that changes the token kinds or layout", name)
		}
	}
}
