package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"interopdb"
	"interopdb/internal/core"
	"interopdb/internal/logic"
	"interopdb/internal/server"
	"interopdb/internal/store"
	"interopdb/internal/view"
	"interopdb/internal/wire"
)

// The traced run replays a workload's operations in-process, on a
// federation built from the same seed and the same load, and records a
// span around every call into a layer's public API. It runs three
// phases — reads, writes, boots — in every workload so every per-layer
// metric is always reported: the workload's own phase runs for the
// measured seconds, the other two a fixed small number of operations
// (they measure layers off that workload's path, on the same data).

const (
	offPathReads  = 300
	offPathWrites = 40
	offPathBoots  = 3
	// maxOps caps an on-path phase so the span dump stays small.
	maxOps = 4000
	// checkpointEveryCommits spaces the write phase's checkpoints.
	checkpointEveryCommits = 25
)

// tracedRun is the in-process replica of one workload's system.
type tracedRun struct {
	cfg    config
	tr     *tracer
	out    *outcome
	counts map[string]float64

	load []view.Mutation
	// The served stack: an in-process server hosting the figure1
	// tenant loaded exactly as the daemon is, on loopback listeners.
	srv     *server.Server
	stopSrv func()
	hc      *httpClient
	wc      *wire.Client
	// lib is the same data as a library federation (durable, so the
	// store layer's WAL and checkpoint are exercised); plain is an
	// identical non-durable federation; member is a detached copy of
	// the Bookseller member; wal is a scratch log for append timing.
	lib    *interopdb.Federation
	dur    *interopdb.Durability
	libDir string
	plain  *interopdb.Federation
	member *interopdb.Store
	wal    *store.WAL
	vid    int
}

func runTraced(cfg config) (*outcome, error) {
	workload := cfg.workload
	r := &tracedRun{cfg: cfg, tr: newTracer(), out: newOutcome(), counts: map[string]float64{}}
	defer r.close()
	if err := r.setUp(); err != nil {
		return nil, err
	}
	budget := time.Duration(cfg.seconds) * time.Second
	reads, writes, boots := offPathReads, offPathWrites, offPathBoots
	var until time.Time
	switch workload {
	case "serve_read":
		reads, until = maxOps, time.Now().Add(budget)
	case "serve_write":
		writes, until = maxOps, time.Now().Add(budget)
	}
	if err := r.readPhase(reads, until); err != nil {
		return nil, fmt.Errorf("read phase: %w", err)
	}
	if workload == "serve_write" {
		until = time.Now().Add(budget)
	} else {
		until = time.Time{}
	}
	if err := r.writePhase(writes, until); err != nil {
		return nil, fmt.Errorf("write phase: %w", err)
	}
	until = time.Time{}
	if workload == "crash_boot" {
		boots, until = maxOps, time.Now().Add(budget)
	}
	if err := r.bootPhase(boots, until); err != nil {
		return nil, fmt.Errorf("boot phase: %w", err)
	}
	r.report()
	return r.out, nil
}

// setUp builds the served stack and its library twins from the seed.
func (r *tracedRun) setUp() error {
	r.load = servedLoad(r.cfg.seed)
	srvDir := ""
	if r.cfg.workload == "serve_write" {
		srvDir = filepath.Join(r.cfg.work, "server-data")
	}
	srv, httpAddr, wireAddr, stop, err := hostServer(srvDir)
	if err != nil {
		return err
	}
	r.srv, r.stopSrv = srv, stop
	r.hc = newHTTPClient(httpAddr)
	if r.wc, err = wire.Dial(wireAddr); err != nil {
		return err
	}
	for i, b := range batches(r.load, loadBatch) {
		if _, _, err := r.wc.Tx(context.Background(), tenant, b, false); err != nil {
			return fmt.Errorf("server load batch %d: %w", i, err)
		}
	}

	r.libDir = filepath.Join(r.cfg.work, "lib")
	if r.dur, err = interopdb.OpenDurability(r.libDir, durOpts); err != nil {
		return err
	}
	local, remote := interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: 1})
	if r.lib, err = figure1(local, remote, interopdb.PipelineOptions{Memo: r.dur.Memo()}); err != nil {
		return err
	}
	if _, err := r.dur.Finish(context.Background(), r.lib); err != nil {
		return err
	}
	for i, b := range batches(r.load, loadBatch) {
		if err := r.lib.Engine().Ship(context.Background(), b); err != nil {
			return fmt.Errorf("lib load batch %d: %w", i, err)
		}
	}
	if r.plain, err = servedTwin(r.load); err != nil {
		return err
	}
	if _, r.member, err = cloneMembers(r.lib); err != nil {
		return err
	}
	if r.wal, _, err = store.OpenWAL(filepath.Join(r.cfg.work, "scratch.wal"), store.WALOptions{Sync: store.SyncNever}); err != nil {
		return err
	}
	r.vid, err = vldbID(r.lib)
	return err
}

func (r *tracedRun) close() {
	if r.wc != nil {
		r.wc.Close()
	}
	if r.hc != nil {
		r.hc.close()
	}
	if r.stopSrv != nil {
		r.stopSrv()
	}
	if r.dur != nil {
		r.dur.Close()
	}
	if r.wal != nil {
		r.wal.Close()
	}
}

// hostServer serves the figure1 tenant in-process on loopback, over
// both transports, like interopd does.
func hostServer(dataDir string) (*server.Server, string, string, func(), error) {
	srv := server.New(server.Config{DataDir: dataDir, CheckpointInterval: -1})
	if err := srv.AddTenant(tenant, "figure1"); err != nil {
		srv.Close()
		return nil, "", "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", "", nil, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		srv.Close()
		return nil, "", "", nil, err
	}
	hs := &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second}
	ws := srv.WireServer()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = hs.Serve(ln) }()
	go func() { defer wg.Done(); _ = ws.Serve(wln) }()
	stop := func() {
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		_ = ws.Shutdown(ctx)
		wg.Wait()
		srv.Close()
	}
	return srv, ln.Addr().String(), wln.Addr().String(), stop, nil
}

// more reports whether a phase should run operation i: up to n
// operations, and while the deadline (if any) has not passed.
func more(i, n int, until time.Time) bool {
	return i < n && (until.IsZero() || time.Now().Before(until))
}

// readPhase replays serve_read's two connections: every operation is a
// prepared query (socket round trip, then its in-process layers) and
// an ad-hoc query (socket round trip, handler, then its layers).
func (r *tracedRun) readPhase(n int, until time.Time) error {
	ctx := context.Background()
	hot := hotQueries(r.cfg.seed, r.load)
	parsed, err := parseAll(hot)
	if err != nil {
		return err
	}
	prepared := make([]*wire.Prepared, len(hot))
	for i, q := range hot {
		if prepared[i], err = r.wc.Prepare(ctx, tenant, q); err != nil {
			return err
		}
		if _, _, err := prepared[i].Exec(ctx); err != nil {
			return err
		}
		if _, _, err := r.lib.Engine().Run(parsed[i]); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0xadc))
	e := r.lib.Engine()
	cs0 := e.CacheStats()
	var queries, prepCount, pruned, rows, candidates, hits, misses float64
	var wireRows, jsonRows float64
	var encodeT, decodeT, jsonT time.Duration
	var respBytes float64
	for i := 0; more(i, n, until); i++ {
		k := i % len(hot)
		r.tr.request()
		var served, res []view.Row
		var execErr error
		r.tr.do("op.prepared", func() {
			r.tr.do("wire.exec_rtt", func() { served, _, execErr = prepared[k].Exec(ctx) })
			var st view.Stats
			r.tr.do("view.run_hit", func() { res, st, err = e.Run(parsed[k]) })
			var buf []byte
			encodeT += r.tr.do("wire.row_encode", func() {
				for _, row := range res {
					buf = wire.AppendRow(buf, row)
				}
			})
			var frame []byte
			r.tr.do("wire.frame", func() {
				frame = wire.AppendFrame(nil, 1, uint64(i), buf)
				_, _, err = wire.DecodeFrame(frame)
			})
			decodeT += r.tr.do("wire.row_decode", func() {
				for b := buf; len(b) > 0; {
					_, m, derr := wire.DecodeRow(b)
					if derr != nil {
						err = derr
						return
					}
					b = b[m:]
				}
			})
			queries++
			prepCount++
			wireRows += float64(len(res))
			respBytes += float64(len(frame))
			rows += float64(len(res))
			candidates += float64(st.CandidateRows)
			if st.PrunedEmpty {
				pruned++
			}
			if st.PlanCached {
				hits++
			} else {
				misses++
			}
		})
		if execErr != nil {
			r.failed(execErr, 0)
		} else if len(served) != len(res) {
			// Before the write phase the server and the library twin
			// hold the same data.
			r.out.fail.wrongAnswer.Add(1)
			r.out.wrong("traced prepared %q: served %d rows, in-process %d", hot[k], len(served), len(res))
		}
		if err != nil {
			return err
		}

		q := adhocQuery(rng)
		other := adhocQuery(rng)
		r.tr.request()
		var status int
		r.tr.do("op.adhoc", func() {
			r.tr.do("server.http_rtt", func() { served, status, execErr = r.hc.query(q) })
			var pq view.Query
			r.tr.do("view.parse", func() { pq, err = view.ParseQuery(q) })
			if err != nil {
				return
			}
			var st view.Stats
			r.tr.do("view.run_miss", func() { res, st, err = e.Run(pq) })
			jsonT += r.tr.do("server.json_row", func() {
				for _, row := range res {
					if _, jerr := json.Marshal(server.EncodeRow(row)); jerr != nil {
						err = jerr
					}
				}
			})
			jsonRows += float64(len(res))
			queries++
			rows += float64(len(res))
			candidates += float64(st.CandidateRows)
			if st.PlanCached {
				hits++
			} else {
				misses++
			}
		})
		if err != nil {
			return err
		}
		if execErr != nil {
			r.failed(execErr, status)
		} else if len(served) != len(res) {
			r.out.fail.wrongAnswer.Add(1)
			r.out.wrong("traced ad-hoc %q: served %d rows, in-process %d", q, len(served), len(res))
		}
		// The handler on an in-memory recorder, with a fresh literal so
		// it builds a plan as the ad-hoc connection's requests do.
		body, _ := json.Marshal(map[string]string{"q": other})
		req := httptest.NewRequest(http.MethodPost, "/v1/"+tenant+"/query", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		r.tr.request()
		r.tr.do("server.handler", func() { r.srv.ServeHTTP(rec, req) })
		switch rec.Code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			r.out.fail.refused.Add(1)
		default:
			r.out.fail.errs.Add(1)
			r.out.wrong("traced handler %q: status %d", other, rec.Code)
		}
	}
	cs1 := e.CacheStats()
	planMisses := float64(cs1.PlanMisses - cs0.PlanMisses)
	r.counts["view.plan_hit_ratio"] = ratio(hits, hits+misses)
	r.counts["view.solver_per_miss"] = ratio(float64(cs1.SolverQueries-cs0.SolverQueries), planMisses)
	r.counts["view.compiles_per_miss"] = ratio(float64(cs1.Compiles-cs0.Compiles), planMisses)
	r.counts["view.candidates_per_row"] = ratio(candidates, rows)
	r.counts["view.pruned_share"] = ratio(pruned, queries)
	r.counts["wire.row_encode_ns"] = ratio(float64(encodeT), wireRows)
	r.counts["wire.row_decode_ns"] = ratio(float64(decodeT), wireRows)
	r.counts["wire.resp_bytes"] = ratio(respBytes, prepCount)
	r.counts["server.json_row_ns"] = ratio(float64(jsonT), jsonRows)
	// Each iteration is a prepared query, an ad-hoc query and a handler call.
	r.out.attempted += int64(3 * prepCount)
	return nil
}

// failed counts a traced operation's transport failure.
func (r *tracedRun) failed(err error, status int) {
	classify(&r.out.fail, err, status)
	r.out.wrong("traced operation: %v", err)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writePhase replays serve_write's writer: every valid transaction is a
// socket round trip, then validation, a durable ship on the library
// twin, a non-durable ship on the plain twin, a member-local commit and
// a WAL append + fsync of the commit's average record size; planted
// violations are a socket round trip plus their in-process rejection.
// A prepared read after every commit counts the replans writes cause.
func (r *tracedRun) writePhase(n int, until time.Time) error {
	ctx := context.Background()
	e, pe := r.lib.Engine(), r.plain.Engine()
	read, err := view.ParseQuery(writeReads(r.cfg.seed, r.load)[0])
	if err != nil {
		return err
	}
	if _, _, err := e.Run(read); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.cfg.seed ^ 0x3717e))
	cs0, rs0, fs0 := e.CacheStats(), e.RingStats(), e.FaultStats()
	var commits, planted, checks, ops, walBytes, walRecords float64
	var replans, ckptBytes float64
	for i := 0; more(i, n, until); i++ {
		tx := genWriteTx(rng, i, r.vid)
		r.tr.request()
		if tx.planted {
			planted++
			var werr error
			var rejs []view.Rejection
			r.tr.do("op.reject", func() {
				r.tr.do("wire.reject_rtt", func() { _, _, werr = r.wc.Tx(ctx, tenant, tx.ops, false) })
				r.tr.do("view.reject", func() { rejs, _, err = e.Validate(ctx, tx.ops) })
			})
			var we *wire.Error
			if werr == nil || !errors.As(werr, &we) || we.Code != wire.CodeRejected || len(rejs) == 0 {
				r.out.fail.plantedCommitted.Add(1)
				r.out.wrong("traced planted transaction %d not rejected: %v", i, werr)
			}
			if err != nil {
				return err
			}
			continue
		}
		var werr error
		lsn0, size0 := r.dur.WAL().LastLSN(), r.dur.WAL().Size()
		r.tr.do("op.commit", func() {
			r.tr.do("wire.tx_rtt", func() { _, _, werr = r.wc.Tx(ctx, tenant, tx.ops, false) })
			var vs view.ValidateStats
			var rejs []view.Rejection
			r.tr.do("view.validate", func() { rejs, vs, err = e.Validate(ctx, tx.ops) })
			if err != nil || len(rejs) > 0 {
				err = errors.Join(err, fmt.Errorf("valid transaction %d rejected: %v", i, rejs))
				return
			}
			checks += float64(vs.PairsChecked)
			ops += float64(len(tx.ops))
			r.tr.do("view.ship_durable", func() { err = e.Ship(ctx, tx.ops) })
			if err != nil {
				return
			}
			r.tr.do("view.ship", func() { err = pe.Ship(ctx, tx.ops) })
			if err != nil {
				return
			}
			r.tr.do("store.member_commit", func() {
				t := r.member.Begin()
				if _, err = t.Insert(tx.ops[0].Class, tx.ops[0].Attrs); err != nil {
					t.Rollback()
					return
				}
				err = t.Commit()
			})
		})
		if err != nil {
			return err
		}
		if werr != nil {
			r.failed(werr, 0)
		}
		commits++
		recs := float64(r.dur.WAL().LastLSN() - lsn0)
		grew := float64(r.dur.WAL().Size() - size0)
		walRecords += recs
		walBytes += grew
		body := make([]byte, int(grew/max(recs, 1)))
		r.tr.request()
		r.tr.do("store.wal_append", func() { _, err = r.wal.Append(store.WALCommit, body) })
		if err != nil {
			return err
		}
		r.tr.do("store.wal_fsync", func() { err = r.wal.Sync() })
		if err != nil {
			return err
		}
		before := e.CacheStats().PlanMisses
		if _, _, err := e.Run(read); err != nil {
			return err
		}
		replans += float64(e.CacheStats().PlanMisses - before)

		if int(commits)%checkpointEveryCommits == 0 {
			r.tr.request()
			r.tr.do("store.checkpoint", func() { err = r.dur.Checkpoint(r.lib) })
			if err != nil {
				return err
			}
			if fi, serr := os.Stat(filepath.Join(r.libDir, "checkpoint.db")); serr == nil {
				ckptBytes = float64(fi.Size())
			}
			if err := r.shipStall(rng, i); err != nil {
				return err
			}
		}
	}
	cs1, rs1, fs1 := e.CacheStats(), e.RingStats(), e.FaultStats()
	r.counts["view.validate_checks_per_op"] = ratio(checks, ops)
	r.counts["view.publishes_per_commit"] = ratio(float64(cs1.Publishes-cs0.Publishes), commits)
	r.counts["view.coalesced"] = float64(rs1.Coalesced - rs0.Coalesced)
	r.counts["view.commit_retries"] = float64(fs1.Retries - fs0.Retries)
	r.counts["view.replans_per_commit"] = ratio(replans, commits)
	r.counts["store.wal_bytes_per_commit"] = ratio(walBytes, commits)
	r.counts["store.wal_records_per_commit"] = ratio(walRecords, commits)
	r.counts["store.checkpoint_bytes"] = ckptBytes
	r.out.attempted += int64(commits + planted)
	return nil
}

// shipStall times a Ship issued while a checkpoint runs concurrently —
// the stall a writer sees behind the checkpoint's capture.
func (r *tracedRun) shipStall(rng *rand.Rand, i int) error {
	ctx := context.Background()
	// A multiple of ten is never a planted index.
	tx := genWriteTx(rng, 1_000_000+10*i, r.vid)
	started := make(chan struct{})
	ckErr := make(chan error, 1)
	go func() {
		close(started)
		ckErr <- r.dur.Checkpoint(r.lib)
	}()
	<-started
	var err error
	r.tr.request()
	r.tr.do("store.ship_stall", func() { err = r.lib.Engine().Ship(ctx, tx.ops) })
	if cerr := <-ckErr; cerr != nil {
		return cerr
	}
	if err != nil {
		return err
	}
	// Keep the plain twin and the server in step with the library twin.
	if err := r.plain.Engine().Ship(ctx, tx.ops); err != nil {
		return err
	}
	_, _, err = r.wc.Tx(ctx, tenant, tx.ops, false)
	return err
}

// bootPhase replays crash_boot: warm and cold boots from a crash image,
// each with its public-API stages as child spans, plus the store,
// logic, core and view calls recovery is made of, timed one by one on
// the same image. crash_boot boots its own fixture-scale image; the
// served workloads boot a crash copy of the library twin.
func (r *tracedRun) bootPhase(n int, until time.Time) error {
	ctx := context.Background()
	qs, err := parseAll(bootQueries(r.cfg.seed))
	if err != nil {
		return err
	}
	scale := 1
	img := filepath.Join(r.cfg.work, "image")
	if r.cfg.workload == "crash_boot" {
		scale = bootScale
		if _, err := buildCrashImage(r.cfg.seed, filepath.Join(r.cfg.work, "image-live"), img, qs); err != nil {
			return err
		}
	} else if err := copyDir(r.libDir, img); err != nil {
		return err
	}
	recipe := func() (*interopdb.Store, *interopdb.Store) {
		return interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: scale})
	}
	ckPath := filepath.Join(img, "checkpoint.db")
	var memoHits, memoTotal, solver, derivBytes, replayed float64
	for i := 0; more(i, n, until) || i == 0; i++ {
		dir := filepath.Join(r.cfg.work, fmt.Sprintf("boot-%d", i))
		if err := copyDir(img, dir); err != nil {
			return err
		}
		var dur *interopdb.Durability
		var wf, cf *interopdb.Federation
		var local, remote *interopdb.Store
		r.tr.request()
		r.tr.do("op.warm_boot", func() {
			r.tr.do("interopdb.recipe", func() { local, remote = recipe() })
			r.tr.do("interopdb.open", func() { dur, err = interopdb.OpenDurability(dir, durOpts) })
			if err != nil {
				return
			}
			r.tr.do("interopdb.restore", func() { err = dur.RestoreStores(local, remote) })
			if err != nil {
				return
			}
			r.tr.do("core.integrate_warm", func() { wf, err = figure1(local, remote, interopdb.PipelineOptions{Memo: dur.Memo()}) })
			if err != nil {
				return
			}
			r.tr.do("interopdb.finish", func() { _, err = dur.Finish(ctx, wf) })
			if err != nil {
				return
			}
			r.tr.do("interopdb.first_answer", func() { _, err = firstAnswers(wf, qs) })
		})
		if err != nil {
			return err
		}
		rs := wf.TotalReasoning()
		memoHits += float64(rs.Hits)
		memoTotal += float64(rs.Hits + rs.Misses)
		replayed = float64(dur.Info().Replay.ReplayedCommits)
		cl, cr, err := cloneMembers(wf)
		if err != nil {
			return err
		}
		r.tr.request()
		r.tr.do("op.cold_boot", func() {
			r.tr.do("core.integrate_cold", func() { cf, err = figure1(cl, cr, interopdb.PipelineOptions{}) })
			if err != nil {
				return
			}
			r.tr.do("interopdb.first_answer_cold", func() { _, err = firstAnswers(cf, qs) })
		})
		if err != nil {
			return err
		}
		solver = float64(cf.TotalReasoning().Misses)

		var ck *store.Checkpoint
		r.tr.request()
		r.tr.do("store.ckpt_read", func() { ck, err = store.ReadCheckpoint(ckPath) })
		if err != nil {
			return err
		}
		var recs []store.WALRecord
		r.tr.do("store.wal_scan", func() {
			var b []byte
			if b, err = os.ReadFile(filepath.Join(img, "wal.log")); err == nil {
				recs, _, _ = store.ScanWAL(b)
			}
		})
		if err != nil {
			return err
		}
		fl, fr := recipe()
		r.tr.do("store.replay", func() {
			_, err = store.BuildRecovery(ck, recs, nil).Replay(map[string]*store.Store{fl.Name(): fl, fr.Name(): fr})
		})
		if err != nil {
			return err
		}
		r.tr.do("logic.memo_import", func() { _, err = logic.NewMemo().Import(ck.Derived["memo"]) })
		if err != nil {
			return err
		}
		r.tr.do("core.verify", func() { err = core.VerifyDerivation(wf.Result().Derivation, ck.Derived["derivation"]) })
		if err != nil {
			return err
		}
		r.tr.do("view.warm_plans", func() { _, _, err = cf.Engine().WarmPlans(ctx, ck.Derived["plans"]) })
		if err != nil {
			return err
		}
		derivBytes = float64(len(ck.Derived["derivation"]))
		if err := dur.Close(); err != nil {
			return err
		}
		os.RemoveAll(dir)
		r.out.attempted += 2
	}
	r.counts["logic.memo_hit_ratio"] = ratio(memoHits, memoTotal)
	r.counts["logic.solver_queries"] = solver
	r.counts["core.derivation_bytes"] = derivBytes
	r.counts["store.replayed_commits"] = replayed
	return nil
}

// spanMetrics maps per-layer metrics to the span whose median self time
// they report, with the unit's size in nanoseconds.
var spanMetrics = []struct {
	metric, span, unit string
	scale              float64
}{
	{"wire.exec_rtt_us", "wire.exec_rtt", "us", 1e3},
	{"wire.frame_ns", "wire.frame", "ns", 1},
	{"wire.tx_rtt_ms", "wire.tx_rtt", "ms", 1e6},
	{"wire.reject_rtt_ms", "wire.reject_rtt", "ms", 1e6},
	{"server.http_rtt_us", "server.http_rtt", "us", 1e3},
	{"server.handler_us", "server.handler", "us", 1e3},
	{"view.parse_us", "view.parse", "us", 1e3},
	{"view.run_hit_us", "view.run_hit", "us", 1e3},
	{"view.run_miss_us", "view.run_miss", "us", 1e3},
	{"view.validate_us", "view.validate", "us", 1e3},
	{"view.reject_us", "view.reject", "us", 1e3},
	{"view.ship_us", "view.ship", "us", 1e3},
	{"view.ship_durable_us", "view.ship_durable", "us", 1e3},
	{"view.warm_plans_ms", "view.warm_plans", "ms", 1e6},
	{"store.member_commit_us", "store.member_commit", "us", 1e3},
	{"store.wal_append_us", "store.wal_append", "us", 1e3},
	{"store.wal_fsync_us", "store.wal_fsync", "us", 1e3},
	{"store.checkpoint_ms", "store.checkpoint", "ms", 1e6},
	{"store.ship_stall_ms", "store.ship_stall", "ms", 1e6},
	{"store.ckpt_read_ms", "store.ckpt_read", "ms", 1e6},
	{"store.wal_scan_ms", "store.wal_scan", "ms", 1e6},
	{"store.replay_ms", "store.replay", "ms", 1e6},
	{"logic.memo_import_ms", "logic.memo_import", "ms", 1e6},
	{"core.integrate_warm_ms", "core.integrate_warm", "ms", 1e6},
	{"core.integrate_cold_ms", "core.integrate_cold", "ms", 1e6},
	{"core.verify_ms", "core.verify", "ms", 1e6},
	{"interopdb.recipe_ms", "interopdb.recipe", "ms", 1e6},
	{"interopdb.open_ms", "interopdb.open", "ms", 1e6},
	{"interopdb.restore_ms", "interopdb.restore", "ms", 1e6},
	{"interopdb.finish_ms", "interopdb.finish", "ms", 1e6},
	{"interopdb.first_answer_ms", "interopdb.first_answer", "ms", 1e6},
	{"boot.warm_ms", "op.warm_boot", "ms", 1e6},
	{"boot.cold_ms", "op.cold_boot", "ms", 1e6},
}

// countUnits are the units of the per-layer counts and ratios.
var countUnits = map[string]string{
	"wire.row_encode_ns":           "ns",
	"wire.row_decode_ns":           "ns",
	"wire.resp_bytes":              "B",
	"server.json_row_ns":           "ns",
	"server.refused":               "count",
	"view.plan_hit_ratio":          "ratio",
	"view.solver_per_miss":         "count",
	"view.compiles_per_miss":       "count",
	"view.candidates_per_row":      "ratio",
	"view.pruned_share":            "ratio",
	"view.replans_per_commit":      "count",
	"view.validate_checks_per_op":  "count",
	"view.publishes_per_commit":    "count",
	"view.coalesced":               "count",
	"view.commit_retries":          "count",
	"store.wal_bytes_per_commit":   "B",
	"store.wal_records_per_commit": "count",
	"store.checkpoint_bytes":       "B",
	"store.replayed_commits":       "count",
	"logic.solver_queries":         "count",
	"logic.memo_hit_ratio":         "ratio",
	"core.derivation_bytes":        "B",
}

// chains decomposes each end-to-end operation into the layer calls the
// traced run times; wal is the measured WAL records per commit.
func chains(walRecords float64) []chain {
	us, ms := 1e3, 1e6
	return []chain{
		{Name: "prepared", Root: "wire.exec_rtt", Unit: "us", Scale: us, Parts: []part{
			{"view.run_hit", 1}, {"wire.row_encode", 1}, {"wire.frame", 1}, {"wire.row_decode", 1}}},
		{Name: "adhoc", Root: "server.http_rtt", Unit: "us", Scale: us, Parts: []part{
			{"view.parse", 1}, {"view.run_miss", 1}, {"server.json_row", 1}}},
		{Name: "commit", Root: "wire.tx_rtt", Unit: "ms", Scale: ms, Parts: []part{
			{"view.validate", 1}, {"view.ship", 1}, {"store.wal_append", walRecords}, {"store.wal_fsync", walRecords}}},
		{Name: "warm_boot", Root: "op.warm_boot", Unit: "ms", Scale: ms, Parts: []part{
			{"interopdb.recipe", 1}, {"interopdb.open", 1}, {"interopdb.restore", 1},
			{"core.integrate_warm", 1}, {"interopdb.finish", 1}, {"interopdb.first_answer", 1}}},
		{Name: "cold_boot", Root: "op.cold_boot", Unit: "ms", Scale: ms, Parts: []part{
			{"core.integrate_cold", 1}, {"interopdb.first_answer_cold", 1}}},
	}
}

// report turns the spans and counts into the per-layer metrics, and
// hands the span dump to main for writing.
func (r *tracedRun) report() {
	st := spanStats(r.tr.spans)
	for _, m := range spanMetrics {
		// An operation's root span reports its whole duration, a
		// layer's span its self time.
		d := st[m.span].MedianSelf
		if strings.HasPrefix(m.span, "op.") {
			d = st[m.span].MedianAll
		}
		r.out.metrics[m.metric] = metric{float64(d) / m.scale, m.unit}
	}
	r.counts["server.refused"] = float64(r.out.fail.refused.Load())
	for name, unit := range countUnits {
		r.out.metrics[name] = metric{r.counts[name], unit}
	}
	cs := chains(r.counts["store.wal_records_per_commit"])
	for _, c := range cs {
		v, _ := c.residual(st)
		r.out.metrics["residual."+c.Name+"_"+c.Unit] = metric{v, c.Unit}
	}
	r.out.detail["spans"] = &spanDump{Workload: r.cfg.workload, Seed: r.cfg.seed, Chains: cs, Spans: r.tr.spans}
}
