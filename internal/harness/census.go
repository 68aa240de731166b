package harness

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/apps/minimd"
	"repro/internal/kr"
)

// Fig7Point is one bar of Figure 7: the relative memory footprint of the
// Checkpointed / Alias / Skipped view classes at one simulation size.
type Fig7Point struct {
	Size                                   int // simulated edge, unit cells
	Views, CheckpointedN, AliasN, SkippedN int
	CheckpointedPct, AliasPct, SkippedPct  float64
	Census                                 kr.Census
}

// Fig7ViewCensus reproduces Figure 7 over the given simulation sizes
// (default 100^3..400^3) for a 64-rank decomposition.
func Fig7ViewCensus(sizes []int) []Fig7Point {
	if len(sizes) == 0 {
		sizes = []int{100, 200, 300, 400}
	}
	var out []Fig7Point
	for _, size := range sizes {
		c := minimd.ViewCensus(size, 64)
		ck, al, sk := c.Counts()
		ckB, alB, skB := c.Bytes()
		total := float64(ckB + alB + skB)
		out = append(out, Fig7Point{
			Size:            size,
			Views:           c.TotalViews(),
			CheckpointedN:   ck,
			AliasN:          al,
			SkippedN:        sk,
			CheckpointedPct: 100 * float64(ckB) / total,
			AliasPct:        100 * float64(alB) / total,
			SkippedPct:      100 * float64(skB) / total,
			Census:          c,
		})
	}
	return out
}

// Complexity is the Section VI-E ease-of-use census, measured against this
// repository's own MiniMD port (the analogue of the paper's numbers: 61
// views, 148 MPI call sites in 15 of 20+ files, under 20 added lines).
type Complexity struct {
	Views, Checkpointed, Aliases, Skipped int

	// MPICallSites counts communicator method call sites in the MiniMD
	// application sources; MPIFiles counts the files containing them and
	// TotalFiles the package's file count. With Fenix, none of these
	// sites needs ULFM error handling.
	MPICallSites int
	MPIFiles     int
	TotalFiles   int

	// ResilienceLines counts the application lines that integrate the
	// resilience system (session checkpoint regions, alias declarations,
	// resume logic) — the code a developer actually adds.
	ResilienceLines int
}

// mpiMethods are the communicator operations counted as MPI call sites.
var mpiMethods = map[string]bool{
	"Send": true, "Recv": true, "Sendrecv": true,
	"SendSized": true, "SendrecvSized": true,
	"Isend": true, "IsendSized": true, "Irecv": true,
	"Wait": true, "WaitAll": true,
	"Barrier": true, "AllreduceF64": true, "AllreduceInt": true,
}

// resilienceCalls are the session methods whose call sites constitute the
// resilience integration.
var resilienceCalls = map[string]bool{
	"Checkpoint": true, "DeclareAliases": true, "ResumeIteration": true,
	"Check": true, "Census": true,
}

// minimdSourceDir locates this repository's MiniMD sources relative to
// this file.
func minimdSourceDir() (string, bool) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		return "", false
	}
	dir := filepath.Join(filepath.Dir(self), "..", "apps", "minimd")
	return dir, true
}

// ComplexityReport computes the Section VI-E census. The view numbers come
// from the live Figure 7 census; the call-site numbers from parsing the
// MiniMD application sources.
func ComplexityReport() (Complexity, error) {
	c := minimd.ViewCensus(200, 64)
	ck, al, sk := c.Counts()
	out := Complexity{
		Views:        c.TotalViews(),
		Checkpointed: ck,
		Aliases:      al,
		Skipped:      sk,
	}

	dir, ok := minimdSourceDir()
	if !ok {
		return out, fmt.Errorf("harness: cannot locate minimd sources")
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		return out, fmt.Errorf("harness: parsing minimd sources: %w", err)
	}
	resLines := map[int]bool{}
	for _, pkg := range pkgs {
		if strings.HasSuffix(pkg.Name, "_test") {
			continue
		}
		files := make([]string, 0, len(pkg.Files))
		for name := range pkg.Files {
			files = append(files, name)
		}
		sort.Strings(files)
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			out.TotalFiles++
			f := pkg.Files[name]
			sites := 0
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if mpiMethods[sel.Sel.Name] {
					sites++
				}
				if resilienceCalls[sel.Sel.Name] {
					resLines[fset.Position(call.Pos()).Line] = true
				}
				return true
			})
			if sites > 0 {
				out.MPIFiles++
				out.MPICallSites += sites
			}
		}
	}
	out.ResilienceLines = len(resLines)
	return out, nil
}
