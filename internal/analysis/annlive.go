package analysis

import "sort"

// AnnLive enforces annotation liveness: every //ssvet: escape hatch must
// still suppress a finding. The preceding analyzers mark an annotation
// live when they honour it at a suppression point (Pass.Annotated); any
// annotation left un-hit when AnnLive runs — the code it excused was
// fixed, moved, or never needed excusing — is itself a diagnostic, so
// escape hatches cannot outlive their reason. Unknown verbs are flagged
// too: a typoed verb suppresses nothing silently.
//
// AnnLive must run last in the suite (Analyzers guarantees the order)
// and is only meaningful under RunAll, where the per-package annotation
// table is shared across analyzers.
var AnnLive = &Analyzer{
	Name: "annlive",
	Doc:  "//ssvet: annotations must still suppress a finding (no dead escape hatches)",
	Run:  runAnnLive,
}

// knownVerbs are the annotation verbs the suite consumes.
var knownVerbs = map[string]bool{
	"nopoll":  true,
	"nostats": true,
}

func runAnnLive(pass *Pass) {
	if pass.ann == nil {
		return
	}
	var dead []*annotation
	for _, byLine := range pass.ann.byLine {
		for _, anns := range byLine {
			for _, a := range anns {
				if !knownVerbs[a.verb] || !a.hit {
					dead = append(dead, a)
				}
			}
		}
	}
	// Map iteration order is random; report deterministically.
	sort.Slice(dead, func(i, j int) bool { return dead[i].pos < dead[j].pos })
	for _, a := range dead {
		if !knownVerbs[a.verb] {
			pass.Reportf(a.pos, "unknown //ssvet: verb %q (known: nopoll, nostats)", a.verb)
			continue
		}
		pass.Reportf(a.pos, "//ssvet:%s annotation no longer suppresses any finding; remove the dead escape hatch", a.verb)
	}
}
