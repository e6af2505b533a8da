package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"interopdb/internal/fixture"
	"interopdb/internal/tm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite internal/core/testdata/golden_* from the current pipeline")

// goldenScale is the fixture scale of the pinned integrations: large
// enough that every per-class shortcut the pipeline takes is applied to
// hundreds of objects of each class.
const goldenScale = 600

// goldenSpecs are the integrations whose output is pinned: the Figure 1
// spec with its conflicts, the repaired spec the served and durable
// paths integrate, and the value-view variant that hides a class.
var goldenSpecs = []struct {
	name string
	spec func(testing.TB) *tm.IntegrationSpec
}{
	{"figure1", func(testing.TB) *tm.IntegrationSpec { return tm.Figure1Integration() }},
	{"repaired", func(testing.TB) *tm.IntegrationSpec { return tm.Figure1IntegrationRepaired() }},
	{"valueview", valueViewSpec},
}

// objectDigest summarises every conformed object (side, class, source,
// attributes) and every global object (ID, classes, attributes) of a run
// as one count and SHA-256 per stage.
func objectDigest(r *Result) string {
	ch := sha256.New()
	nc := 0
	for _, side := range []Side{LocalSide, RemoteSide} {
		for _, o := range r.Conformed.AllObjects(side) {
			fmt.Fprintf(ch, "%s %t %s\n", side, o.Virtual, o)
			nc++
		}
	}
	gh := sha256.New()
	for _, g := range r.View.Objects {
		fmt.Fprintf(gh, "%s\n", g)
	}
	return fmt.Sprintf("conformed %d %x\nglobal %d %x\n", nc, ch.Sum(nil), len(r.View.Objects), gh.Sum(nil))
}

// TestGoldenScalePipeline pins Report() and the object digests of the
// scaled Figure 1 integrations byte for byte, sequentially and at the
// default parallelism. Run with -update-golden to rewrite the files
// after an intended change of output.
func TestGoldenScalePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-600 integrations in -short mode")
	}
	for _, gs := range goldenSpecs {
		t.Run(gs.name, func(t *testing.T) {
			reportFile := filepath.Join("testdata", "golden_"+gs.name+"_report.txt")
			digestFile := filepath.Join("testdata", "golden_"+gs.name+"_digest.txt")
			for _, opts := range []Options{{Parallelism: 1}, {}} {
				local, remote := fixture.Figure1Stores(fixture.Options{Scale: goldenScale})
				res, err := IntegrateOptions(tm.Figure1Library(), tm.Figure1Bookseller(), gs.spec(t),
					local, remote, 1, opts)
				if err != nil {
					t.Fatal(err)
				}
				report, digest := res.Report(), objectDigest(res)
				if *updateGolden {
					for file, body := range map[string]string{reportFile: report, digestFile: digest} {
						if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					continue
				}
				for file, got := range map[string]string{reportFile: report, digestFile: digest} {
					want, err := os.ReadFile(file)
					if err != nil {
						t.Fatal(err)
					}
					if got != string(want) {
						t.Errorf("Parallelism %d: output differs from %s:\n%s", opts.Parallelism, file, got)
					}
				}
			}
		})
	}
}
