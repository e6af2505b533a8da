package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"interopdb"
	"interopdb/internal/object"
	"interopdb/internal/store"
	"interopdb/internal/view"
)

// figure1 builds the figure1 federation the way interopd's figure1
// tenant is built (pipeline seed 1, CSLibrary seed member, Bookseller
// attached with the repaired integration), over the given member
// stores. Options without a memo give a cold federation.
func figure1(local, remote *interopdb.Store, opts interopdb.PipelineOptions) (*interopdb.Federation, error) {
	fed := interopdb.NewFederation(1, opts)
	if err := fed.Attach(interopdb.Figure1Library(), local, nil); err != nil {
		return nil, fmt.Errorf("attach CSLibrary: %w", err)
	}
	if err := fed.Attach(interopdb.Figure1Bookseller(), remote, interopdb.Figure1IntegrationRepaired()); err != nil {
		return nil, fmt.Errorf("attach Bookseller: %w", err)
	}
	return fed, nil
}

// servedTwin builds in-process the federation a served workload's
// daemon holds after set-up: the scale-1 figure1 fixture plus the
// seeded load, shipped through the routed path in load-sized batches.
func servedTwin(load []view.Mutation) (*interopdb.Federation, error) {
	local, remote := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 1})
	fed, err := figure1(local, remote, interopdb.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	for i, b := range batches(load, loadBatch) {
		if err := fed.Engine().Ship(context.Background(), b); err != nil {
			return nil, fmt.Errorf("twin load batch %d: %w", i, err)
		}
	}
	return fed, nil
}

// vldbID is the view ID of the merged vldb96 object.
func vldbID(fed *interopdb.Federation) (int, error) {
	for _, g := range fed.Result().View.Objects {
		if v, ok := g.Get("isbn"); ok && v.Equal(object.Str("vldb96")) && g.Classes["Item"] && g.Classes["Publication"] {
			return g.ID, nil
		}
	}
	return 0, fmt.Errorf("merged vldb96 object not found")
}

// answer is a query result reduced to what the oracles compare.
type answer struct {
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
}

// digestRows is an order-independent digest of a result: each row is
// rendered with its attributes sorted by name, the renderings sorted.
func digestRows(rows []view.Row) answer {
	lines := make([]string, len(rows))
	for i, r := range rows {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(r[k].String())
			b.WriteByte(';')
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return answer{Rows: len(rows), Digest: hex.EncodeToString(h.Sum(nil))[:16]}
}

// reference answers queries with the engine's reference semantics: no
// indexes, no compiled residuals, the tree-walking interpreter over the
// snapshot extent. Callers switch the engine to it once its load is
// done and never switch it back.
type reference struct{ e *interopdb.QueryEngine }

func newReference(fed *interopdb.Federation) reference {
	e := fed.Engine()
	e.UseIndexes = false
	return reference{e: e}
}

func (r reference) rows(src string) ([]view.Row, error) {
	q, err := view.ParseQuery(src)
	if err != nil {
		return nil, fmt.Errorf("parse %q: %w", src, err)
	}
	rows, _, err := r.e.Run(q)
	if err != nil {
		return nil, fmt.Errorf("reference %q: %w", src, err)
	}
	return rows, nil
}

func (r reference) answer(src string) (answer, error) {
	rows, err := r.rows(src)
	if err != nil {
		return answer{}, err
	}
	return digestRows(rows), nil
}

// memberDigest digests every member store's extents (object IDs,
// classes and attribute values in insertion order). The OID allocation
// cursor is left out: aborted transactions burn OIDs in the live
// process that a replay, which sees only durable commits, never
// allocates.
func memberDigest(fed *interopdb.Federation) (string, error) {
	h := sha256.New()
	for _, name := range fed.Members() {
		m, ok := fed.Member(name)
		if !ok {
			return "", fmt.Errorf("member %s missing", name)
		}
		mc, err := store.SnapshotStore(m.Store)
		if err != nil {
			return "", err
		}
		mc.NextOID = 0
		b, err := json.Marshal(mc)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
