package interopdb

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFederationConcurrentMembership exercises Attach and Detach under
// live traffic (run with -race in CI): concurrent Run, Validate and
// Ship callers proceed throughout repeated membership changes,
// and readers never observe a torn membership — the archive's Record
// extension is either fully absent or fully present, and extents the
// membership change does not touch keep their cardinality.
func TestFederationConcurrentMembership(t *testing.T) {
	const scale = 2
	fed := buildFigure1Federation(t, scale, false)
	e := fed.Engine()
	ctx := context.Background()

	// Learn the two legal cardinalities quiescently.
	archive := ArchiveStore(FixtureOptions{Scale: scale})
	aspec, ais := Figure1UnivArchive(), Figure1ArchiveIntegration()
	if err := fed.Attach(aspec, archive, ais); err != nil {
		t.Fatal(err)
	}
	recordRows, _, err := e.Run(Query{Class: "Record"})
	if err != nil {
		t.Fatal(err)
	}
	attached := len(recordRows)
	if attached == 0 {
		t.Fatal("no Record members while attached")
	}
	sciRows, _, err := e.Run(Query{Class: "ScientificPubl"})
	if err != nil {
		t.Fatal(err)
	}
	sciCount := len(sciRows)
	if err := fed.Detach("UnivArchive"); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	errs := make(chan error, 32)
	var wg sync.WaitGroup

	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rows, _, err := e.Run(Query{Class: "Record"})
				if err != nil {
					errs <- fmt.Errorf("Run(Record): %w", err)
					return
				}
				if n := len(rows); n != 0 && n != attached {
					errs <- fmt.Errorf("torn membership: Record extent %d, want 0 or %d", n, attached)
					return
				}
				rows, _, err = e.Run(Query{Class: "ScientificPubl", Where: MustParseExpr("rating >= 1")})
				if err != nil {
					errs <- fmt.Errorf("Run(ScientificPubl): %w", err)
					return
				}
				if len(rows) != sciCount {
					errs <- fmt.Errorf("untouched extent moved: ScientificPubl %d, want %d", len(rows), sciCount)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			attrs := map[string]Value{
				"title": Str("probe"), "isbn": Str(fmt.Sprintf("probe-%d", i)),
				"publisher": Ref{DB: "Bookseller", OID: 1},
				"shopprice": Real(30), "libprice": Real(25),
				"ref?": Bool(true), "rating": Int(8),
			}
			if _, _, err := e.Validate(ctx, []Mutation{{Kind: MutInsert, Class: "Proceedings", Attrs: attrs}}); err != nil {
				errs <- fmt.Errorf("Validate: %w", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			attrs := map[string]Value{
				"title": Str("Shipped During Membership Change"), "isbn": Str(fmt.Sprintf("ship-%d", i)),
				"publisher": Ref{DB: "Bookseller", OID: 2},
				"authors":   NewSet(Str("Writer")),
				"shopprice": Real(45), "libprice": Real(40),
				"ref?": Bool(true), "rating": Int(9),
			}
			if err := e.Ship(ctx, []Mutation{{Kind: MutInsert, Class: "Proceedings", Attrs: attrs}}); err != nil {
				errs <- fmt.Errorf("Ship: %w", err)
				return
			}
		}
	}()

	for cycle := 0; cycle < 3; cycle++ {
		if err := fed.Attach(aspec, archive, ais); err != nil {
			t.Fatalf("cycle %d attach: %v", cycle, err)
		}
		if err := fed.Detach("UnivArchive"); err != nil {
			t.Fatalf("cycle %d detach: %v", cycle, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
