// Package lint assembles the repo-invariant analyzer suite and runs it
// over type-checked packages.
//
// The suite encodes design rules from earlier PRs that ordinary review
// keeps re-litigating: marshal outside the ordering lock (PR 1), emit
// events after unlock (PR 5), trust the obs nil-contract (PR 7), route
// errors through the taxonomy writer (PR 2), grep-stable snake_case log
// keys (PR 8), and zero-allocation hot paths (PR 6). `cmd/assesslint`
// is its one entry point, on the command line and in CI.
package lint

import (
	"fmt"
	"sort"

	"mineassess/internal/lint/analysis"
	"mineassess/internal/lint/ctxflow"
	"mineassess/internal/lint/errtaxonomy"
	"mineassess/internal/lint/hotpathalloc"
	"mineassess/internal/lint/load"
	"mineassess/internal/lint/lockio"
	"mineassess/internal/lint/nonblockingpublish"
	"mineassess/internal/lint/obsnil"
	"mineassess/internal/lint/slogkeys"
)

// Suite returns the repo-invariant analyzers in a stable order.
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockio.Analyzer,
		nonblockingpublish.Analyzer,
		obsnil.Analyzer,
		errtaxonomy.Analyzer,
		slogkeys.Analyzer,
		hotpathalloc.Analyzer,
		ctxflow.Analyzer,
	}
}

// ByName returns the named analyzer from the suite, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Suite() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Finding is one diagnostic with its source location rendered.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Pos      string `json:"pos"` // file:line:col
	Message  string `json:"message"`
}

// Run loads the packages matched by patterns (rooted at dir) and applies
// every analyzer, honoring //assess:allow suppressions. Findings come
// back sorted by position; a non-nil error means the run itself broke
// (load or type-check failure), not that the code has findings.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer) ([]Finding, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, pkg := range pkgs {
		allows := analysis.ScanAllows(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				if allows.Allows(pkg.Fset, d.Pos, name) {
					return
				}
				findings = append(findings, Finding{
					Analyzer: name,
					Package:  pkg.ImportPath,
					Pos:      pkg.Fset.Position(d.Pos).String(),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		if findings[i].Pos != findings[j].Pos {
			return findings[i].Pos < findings[j].Pos
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
