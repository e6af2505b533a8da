package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"interopdb"
	"interopdb/internal/store"
	"interopdb/internal/view"
)

const (
	// bootScale is crash_boot's fixture scale: Figure1Stores adds four
	// objects per step, about 2.4k objects across the two members.
	bootScale = 600
	// bootCommits is K: commits shipped before the mid-run checkpoint
	// and again after it, so recovery reads a checkpoint and replays a
	// WAL tail.
	bootCommits = 20
)

// bootQueries is the query mix whose first answers end every boot.
func bootQueries(seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0xb007))
	return []string{
		fmt.Sprintf("select title, shopprice from Item where isbn = 'vldb96-c%d'", 1+rng.Intn(bootScale)),
		// The fixture's scaled copies all cost 30 to 90, so this range
		// holds the CAiSE proceedings and the seeded commits' Items in
		// it, never a whole scaled extent.
		"select title, shopprice from Item where shopprice >= 55 and shopprice < 65",
		"select title from Proceedings where ref? = true and rating >= 5",
		"select title from Proceedings where publisher.name = 'IEEE' and ref? = false",
		fmt.Sprintf("select title from Publication where isbn = 'sigmod96-c%d'", 1+rng.Intn(bootScale)),
		"select title, rating from RefereedPubl where rating >= 8",
	}
}

func parseAll(srcs []string) ([]view.Query, error) {
	qs := make([]view.Query, len(srcs))
	for i, s := range srcs {
		q, err := view.ParseQuery(s)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", s, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// firstAnswers runs the query mix once and digests every answer.
func firstAnswers(fed *interopdb.Federation, qs []view.Query) ([]answer, error) {
	out := make([]answer, len(qs))
	for i, q := range qs {
		rows, _, err := fed.Engine().Run(q)
		if err != nil {
			return nil, err
		}
		out[i] = digestRows(rows)
	}
	return out, nil
}

// bootStores builds the recipe stores every boot starts from.
func bootStores() (local, remote *interopdb.Store) {
	return interopdb.Figure1Stores(interopdb.FixtureOptions{Scale: bootScale})
}

var durOpts = interopdb.DurabilityOptions{Sync: interopdb.SyncAlways}

// crashImage is a data directory as a kill -9 would leave it, plus the
// acknowledged state it must recover to.
type crashImage struct {
	dir    string
	digest string
}

// buildCrashImage boots a durable federation, ships K commits, runs the
// query mix, checkpoints, ships K more, and copies the data directory
// without Close or Checkpoint — under SyncAlways every acknowledged
// commit is on disk, so the copy is what a crash would leave.
func buildCrashImage(seed int64, live, snap string, qs []view.Query) (crashImage, error) {
	ctx := context.Background()
	dur, err := interopdb.OpenDurability(live, durOpts)
	if err != nil {
		return crashImage{}, err
	}
	defer dur.Close()
	local, remote := bootStores()
	if err := dur.RestoreStores(local, remote); err != nil {
		return crashImage{}, err
	}
	fed, err := figure1(local, remote, interopdb.PipelineOptions{Memo: dur.Memo()})
	if err != nil {
		return crashImage{}, err
	}
	if _, err := dur.Finish(ctx, fed); err != nil {
		return crashImage{}, err
	}
	if err := shipBootCommits(ctx, fed, seed, 0); err != nil {
		return crashImage{}, err
	}
	if _, err := firstAnswers(fed, qs); err != nil {
		return crashImage{}, err
	}
	if err := dur.Checkpoint(fed); err != nil {
		return crashImage{}, err
	}
	if err := shipBootCommits(ctx, fed, seed, 1); err != nil {
		return crashImage{}, err
	}
	digest, err := memberDigest(fed)
	if err != nil {
		return crashImage{}, err
	}
	if err := copyDir(live, snap); err != nil {
		return crashImage{}, err
	}
	return crashImage{dir: snap, digest: digest}, nil
}

// shipBootCommits ships K valid cross-member transactions.
func shipBootCommits(ctx context.Context, fed *interopdb.Federation, seed int64, phase int) error {
	vid, err := vldbID(fed)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ int64(0xc0+phase)))
	for shipped, i := 0, phase*1000; shipped < bootCommits; i++ {
		tx := genWriteTx(rng, i, vid)
		if tx.planted {
			continue
		}
		if err := fed.Engine().Ship(ctx, tx.ops); err != nil {
			return fmt.Errorf("boot commit %d: %w", i, err)
		}
		shipped++
	}
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// warmBoot is the durable restart: open the directory, rebuild the
// recipe stores, replay checkpoint + WAL tail, integrate with the
// recovered memo, Finish (verify, warm plans, checkpoint), and answer
// the query mix.
func warmBoot(dir string, qs []view.Query) (*interopdb.Federation, *interopdb.Durability, []answer, error) {
	dur, err := interopdb.OpenDurability(dir, durOpts)
	if err != nil {
		return nil, nil, nil, err
	}
	local, remote := bootStores()
	if err := dur.RestoreStores(local, remote); err != nil {
		dur.Close()
		return nil, nil, nil, err
	}
	fed, err := figure1(local, remote, interopdb.PipelineOptions{Memo: dur.Memo()})
	if err != nil {
		dur.Close()
		return nil, nil, nil, err
	}
	if _, err := dur.Finish(context.Background(), fed); err != nil {
		dur.Close()
		return nil, nil, nil, err
	}
	ans, err := firstAnswers(fed, qs)
	if err != nil {
		dur.Close()
		return nil, nil, nil, err
	}
	return fed, dur, ans, nil
}

// cloneMembers copies a federation's member stores into fresh stores
// over the same schemas.
func cloneMembers(fed *interopdb.Federation) (local, remote *interopdb.Store, err error) {
	local = interopdb.NewStore(interopdb.Figure1Library())
	remote = interopdb.NewStore(interopdb.Figure1Bookseller())
	for _, st := range []*interopdb.Store{local, remote} {
		m, ok := fed.Member(st.Name())
		if !ok {
			return nil, nil, fmt.Errorf("member %s missing", st.Name())
		}
		mc, err := store.SnapshotStore(m.Store)
		if err != nil {
			return nil, nil, err
		}
		if err := mc.RestoreInto(st); err != nil {
			return nil, nil, err
		}
	}
	return local, remote, nil
}

// coldBoot integrates the recovered stores from scratch, with no memo,
// and answers the query mix.
func coldBoot(local, remote *interopdb.Store, qs []view.Query) (*interopdb.Federation, []answer, error) {
	fed, err := figure1(local, remote, interopdb.PipelineOptions{})
	if err != nil {
		return nil, nil, err
	}
	ans, err := firstAnswers(fed, qs)
	return fed, ans, err
}

func runCrashBoot(cfg config) (*outcome, error) {
	out := newOutcome()
	srcs := bootQueries(cfg.seed)
	qs, err := parseAll(srcs)
	if err != nil {
		return nil, err
	}
	var img crashImage
	var setups []float64
	for r := 0; r < setupReps; r++ {
		live := filepath.Join(cfg.work, fmt.Sprintf("live-%d", r))
		snap := filepath.Join(cfg.work, fmt.Sprintf("snap-%d", r))
		t0 := time.Now()
		if img, err = buildCrashImage(cfg.seed, live, snap, qs); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		os.RemoveAll(live)
	}
	setupMetrics(out, setups)
	local, remote := bootStores()
	out.env["member_objects"] = map[string]int{local.Name(): local.Count(), remote.Name(): remote.Count()}
	out.env["boot_commits"] = 2 * bootCommits
	out.env["wal_sync"] = "SyncAlways"
	out.env["checkpoint_cadence"] = fmt.Sprintf("one checkpoint after %d of %d commits", bootCommits, 2*bootCommits)

	warm, cold := newSeries(), newSeries()
	var firstAns []answer
	var firstReport string
	var recovered, replayed int
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for i := 0; i < 3 || time.Now().Before(deadline); i++ {
		dir := filepath.Join(cfg.work, fmt.Sprintf("boot-%d", i))
		if err := copyDir(img.dir, dir); err != nil {
			return nil, err
		}
		runtime.GC()
		out.attempted++
		t0 := time.Now()
		wf, dur, wAns, err := warmBoot(dir, qs)
		lat := time.Since(t0)
		if err != nil {
			out.fail.errs.Add(1)
			out.wrong("warm boot %d: %v", i, err)
			continue
		}
		warm.add(lat)
		info := dur.Info()
		recovered, replayed = info.Replay.RestoredObjects, info.Replay.ReplayedCommits
		if d, err := memberDigest(wf); err != nil || d != img.digest {
			out.fail.wrongAnswer.Add(1)
			out.wrong("warm boot %d recovered member digest %s, acknowledged state %s (%v)", i, d, img.digest, err)
		}
		cl, cr, err := cloneMembers(wf)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		out.attempted++
		t1 := time.Now()
		cf, cAns, err := coldBoot(cl, cr, qs)
		clat := time.Since(t1)
		if err != nil {
			out.fail.errs.Add(1)
			out.wrong("cold boot %d: %v", i, err)
		} else {
			cold.add(clat)
			if firstAns == nil {
				firstAns, firstReport = wAns, wf.Report()
			}
			if !sameAnswers(wAns, cAns) || !sameAnswers(wAns, firstAns) {
				out.fail.wrongAnswer.Add(1)
				out.wrong("boot %d first answers differ: warm %v cold %v first %v", i, wAns, cAns, firstAns)
			}
			if i < 3 && (wf.Report() != cf.Report() || wf.Report() != firstReport) {
				out.fail.wrongAnswer.Add(1)
				out.wrong("boot %d: warm and cold Report() differ", i)
			}
		}
		if err := dur.Close(); err != nil {
			return nil, err
		}
		os.RemoveAll(dir)
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return nil, err
	}
	bootMetrics(out, "main", "warm boot to first answers", warm)
	bootMetrics(out, "second", "cold integrate to first answers", cold)
	out.metrics["peak_rss_mb"] = metric{rss, "MB"}
	out.detail["restored_objects"] = recovered
	out.detail["replayed_commits"] = replayed
	out.detail["queries"] = srcs
	return out, nil
}

// bootMetrics reports boot latencies; throughput is boots per second
// of boot time, the untimed copies and checks in between left out.
func bootMetrics(out *outcome, prefix, what string, s *series) {
	s.wall = 0
	for _, l := range s.lat {
		s.wall += l
	}
	latencyMetrics(out, prefix, what, s)
}

func sameAnswers(a, b []answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
