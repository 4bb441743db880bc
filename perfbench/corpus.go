package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/cast"
	"repro/internal/codegen"
	"repro/internal/cparse"
	"repro/internal/index"
	"repro/internal/smpl"
)

// portShapes are the codegen shapes a port tree mixes, in equal shares.
var portShapes = []string{"cuda", "kernels", "openacc", "openmp", "mixed"}

// checkIDs are the hpc-checks campaign's check ids, in the order plant
// templates are tried.
var checkIDs = []string{
	"cuda-malloc-unchecked", "cuda-sync-device", "cuda-launch-default-stream",
	"acc-parallel-no-clauses", "acc-kernels", "host-alloc-no-free",
}

// plantRate is the share of a check tree's files that carry one planted
// instance of a given check shape.
const plantRate = 0.2

// genFile is one generated source file plus the references the generator
// knows about it, against which the program's outputs are checked.
type genFile struct {
	Rel   string // path relative to the tree root
	Shape string
	Src   string
	// Regions is the number of OpenMP pragma blocks (L1 anchors).
	Regions int
	// Launches is the number of triple-chevron kernel launches.
	Launches int
	// Planted counts planted check shapes by check id.
	Planted map[string]int
}

// CUDA reports whether the file is CUDA-shaped: after a hipify port it
// must hold no CUDA runtime name and no launch chevrons.
func (f *genFile) CUDA() bool { return f.Shape == "cuda" }

// tree is a generated workload tree.
type tree struct {
	Files []*genFile
}

// fnName matches the function names codegen emits; each gets a per-file
// suffix so that no two files share a function and no two files are equal.
var fnName = regexp.MustCompile(`\b(dev_kernel|host_driver|acc_kernel|kernel_fma|kernel|helper|unrolled|step)_(\d+)\b`)

// genTree builds n files from seed. Every seed yields the same multiset of
// (shape, functions, statements) sizes, spread evenly over eight
// directories, and, with plant set, the same number of planted instances of
// each check shape (plantRate of the files each). The seed picks the file
// names, which files carry plants, and all the generated content.
func genTree(seed int64, n int, plant bool) *tree {
	r := rand.New(rand.NewSource(seed))
	type size struct {
		shape        string
		funcs, stmts int
	}
	sizes := make([]size, n)
	for i := range sizes {
		k := len(portShapes)
		sizes[i] = size{portShapes[i%k], 3 + (i/k)%6, 2 + (i/(k*6))%4}
	}
	names := r.Perm(n)
	planted := make([]map[string]bool, n)
	for i := range planted {
		planted[i] = map[string]bool{}
	}
	if plant {
		for _, id := range checkIDs {
			for _, i := range r.Perm(n)[:int(float64(n)*plantRate+0.5)] {
				planted[i][id] = true
			}
		}
	}
	t := &tree{}
	for i, sz := range sizes {
		fr := rand.New(rand.NewSource(r.Int63()))
		cfg := codegen.Config{Funcs: sz.funcs, StmtsPerFunc: sz.stmts, Seed: fr.Int63()}
		tag := fmt.Sprintf("f%d", names[i])
		f := &genFile{Shape: sz.shape, Planted: map[string]int{}}
		src := codegen.Shapes[sz.shape](cfg)
		src = fnName.ReplaceAllString(src, "${1}_${2}_"+tag)
		switch sz.shape {
		case "openmp":
			f.Regions = cfg.Funcs
		case "mixed":
			f.Regions = (cfg.Funcs + 3) / 4
		case "cuda":
			f.Launches = cfg.Funcs * cfg.StmtsPerFunc
		}
		var sb strings.Builder
		sb.WriteString(src)
		for _, id := range checkIDs {
			if planted[i][id] {
				sb.WriteString(plantSource(id, tag, fr))
				f.Planted[id]++
			}
		}
		ext := ".c"
		if sz.shape == "cuda" {
			ext = ".cu"
		}
		f.Rel = filepath.Join(fmt.Sprintf("d%02d", i%8), tag+ext)
		f.Src = sb.String()
		t.Files = append(t.Files, f)
	}
	return t
}

// plantSource is one function holding exactly one instance of check id.
func plantSource(id, tag string, r *rand.Rand) string {
	k := r.Intn(90) + 2
	switch id {
	case "cuda-malloc-unchecked":
		return fmt.Sprintf("void plant_malloc_%s(double **p, int n) {\n\tcudaMalloc(p, n * %d * sizeof(double));\n}\n\n", tag, k)
	case "cuda-sync-device":
		return fmt.Sprintf("void plant_sync_%s(double *a) {\n\ta[0] = %d.0;\n\tcudaDeviceSynchronize();\n}\n\n", tag, k)
	case "cuda-launch-default-stream":
		return fmt.Sprintf("void plant_launch_%s(int n, double *d) {\n\tplant_kernel_%s<<<gridOf(n), %d, 64, 0>>>(n, d);\n}\n\n", tag, tag, 32*(k%8+1))
	case "acc-parallel-no-clauses":
		return fmt.Sprintf("void plant_acc_%s(int n, double *a) {\n#pragma acc parallel loop\n\tfor (int i = 0; i < n; ++i)\n\t\ta[i] = a[i] * %d.0;\n}\n\n", tag, k)
	case "acc-kernels":
		return fmt.Sprintf("void plant_kernels_%s(int n, double *a) {\n#pragma acc kernels\n\tfor (int i = 0; i < n; ++i)\n\t\ta[i] = a[i] + %d.0;\n}\n\n", tag, k)
	case "host-alloc-no-free":
		return fmt.Sprintf("int plant_leak_%s(int n) {\n\tdouble *p;\n\tp = malloc(n * sizeof(double));\n\tif (n > %d)\n\t\treturn 1;\n\tfree(p);\n\treturn 0;\n}\n\n", tag, k)
	}
	panic("unknown check id " + id)
}

// write materializes the tree below root.
func (t *tree) write(root string) error {
	for _, f := range t.Files {
		p := filepath.Join(root, f.Rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(p, []byte(f.Src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// byRel indexes the tree's files by relative path.
func (t *tree) byRel() map[string]*genFile {
	m := make(map[string]*genFile, len(t.Files))
	for _, f := range t.Files {
		m[f.Rel] = f
	}
	return m
}

// planted is the multiset of expected findings keyed "check-id file".
func (t *tree) planted() map[string]int {
	m := map[string]int{}
	for _, f := range t.Files {
		for id, n := range f.Planted {
			m[id+" "+filepath.ToSlash(f.Rel)] += n
		}
	}
	return m
}

// funcHeader matches a function definition's opening line.
var funcHeader = regexp.MustCompile(`(?m)^[A-Za-z_][^\n;#]*\)\s*\{\n`)

// editLine matches the statement editFunction inserts.
var editLine = regexp.MustCompile(`^\tedit_mark\(\d+\);\n`)

// editFunction edits one function of src: it inserts (or renumbers) an
// edit_mark call as the first statement of the pick-th function (modulo the
// function count). The edit changes no reference the generator knows.
func editFunction(src string, pick, stamp int) string {
	locs := funcHeader.FindAllStringIndex(src, -1)
	if len(locs) == 0 {
		return src
	}
	at := locs[pick%len(locs)][1]
	mark := fmt.Sprintf("\tedit_mark(%d);\n", stamp)
	if m := editLine.FindStringIndex(src[at:]); m != nil {
		return src[:at] + mark + src[at+m[1]:]
	}
	return src[:at] + mark + src[at:]
}

// descriptor summarizes a tree for the result record: size, duplication,
// and each patch's prefilter candidate share.
type descriptor struct {
	Files          int                `json:"files"`
	Bytes          int                `json:"bytes"`
	Functions      int                `json:"functions"`
	DupFileShare   float64            `json:"duplicate_file_share"`
	DupFuncShare   float64            `json:"duplicate_function_share"`
	CandidateShare map[string]float64 `json:"candidate_share"`
}

// describe computes the tree's descriptor under the given patches.
func describe(t *tree, patches []*smpl.Patch, popts cparse.Options) (descriptor, error) {
	d := descriptor{Files: len(t.Files), CandidateShare: map[string]float64{}}
	fileSeen := map[string]int{}
	fnSeen := map[string]int{}
	for _, f := range t.Files {
		d.Bytes += len(f.Src)
		fileSeen[cache.HashString(f.Src)]++
		cf, err := cparse.Parse(f.Rel, f.Src, popts)
		if err != nil {
			return d, fmt.Errorf("describe: %w", err)
		}
		if seg := cast.SegmentFile(cf); seg != nil {
			for i := range seg.Funcs {
				fnSeen[cache.HashString(seg.Funcs[i].Identity())]++
				d.Functions++
			}
		}
	}
	d.DupFileShare = dupShare(fileSeen, len(t.Files))
	d.DupFuncShare = dupShare(fnSeen, d.Functions)
	for _, p := range patches {
		flt := index.Build(p).ForDefines(nil)
		n := 0
		for _, f := range t.Files {
			if flt.MayMatch(f.Src) {
				n++
			}
		}
		d.CandidateShare[p.Name] = float64(n) / float64(len(t.Files))
	}
	return d, nil
}

// dupShare is the share of items whose content also occurs elsewhere.
func dupShare(seen map[string]int, total int) float64 {
	if total == 0 {
		return 0
	}
	dup := 0
	for _, n := range seen {
		if n > 1 {
			dup += n
		}
	}
	return float64(dup) / float64(total)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
