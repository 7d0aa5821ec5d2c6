package testbed

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// The fixture every row of TestRangeLies starts from: shard 0 of a
// two-shard cluster on three drives at two copies, its keys at two
// versions each, and the first damaged keys replicated on the liar
// missing their newest version and their metadata there — what repair
// and the sweeper exist to restore, and what leaves the liar's own
// record range short of the newest version.
const (
	lieDrive   = 1 // the drive of shard 0 that lies
	lieKeys    = 24
	lieDamaged = 4
	lieBudget  = 8 // sweeper keys per tick
)

type lieFixture struct {
	mc      *MultiCluster
	node    *Cluster
	sess    *core.Session
	keys    []string // owned by shard 0, ascending
	damaged []string // the first of keys replicated on the liar, damaged there
	intact  []string // the rest
}

func newLieFixture(t *testing.T) *lieFixture {
	t.Helper()
	mc, err := StartMulti(2, Options{Drives: 3, Replicas: 2, SweepKeysPerTick: lieBudget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mc.Close)
	f := &lieFixture{mc: mc, node: mc.Nodes[0]}
	f.sess = f.node.Controller.Session("w")
	ctx := context.Background()
	for i := 0; len(f.keys) < lieKeys; i++ {
		key := fmt.Sprintf("lie/%03d", i)
		if owner, err := mc.Map().OwnerOf(key); err != nil || owner.ID != 0 {
			continue
		}
		for v := 0; v < 2; v++ {
			if _, err := f.sess.Put(ctx, key, []byte(fmt.Sprintf("v%d", v)), core.PutOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		f.keys = append(f.keys, key)
	}
	for _, key := range f.keys {
		if _, ok := driveMetaVersion(t, f.node, lieDrive, key); ok && len(f.damaged) < lieDamaged {
			deleteDriveRecord(t, f.node, lieDrive, store.MetaKey(key))
			deleteDriveRecord(t, f.node, lieDrive, store.ObjectKey(key, 1))
			f.damaged = append(f.damaged, key)
		} else {
			f.intact = append(f.intact, key)
		}
	}
	if len(f.damaged) < lieDamaged {
		t.Fatalf("only %d keys replicated on drive %d", len(f.damaged), lieDrive)
	}
	return f
}

// driveReq runs one signed admin request directly against drive di of
// node n, on the account the drive holds: a handoff's release rotates
// the losing shard's drives onto the new epoch's admin account.
func (mc *MultiCluster) driveReq(n *Cluster, di int, m *wire.Message) *wire.Message {
	d := n.Drives[di]
	m.User = core.AdminIdentity
	key := n.driveAdminKey(d.Name())
	if accounts := d.Accounts(); len(accounts) == 1 && accounts[0] != m.User {
		m.User = accounts[0]
		mac := hmac.New(sha256.New, n.adminSeed[:])
		fmt.Fprintf(mac, "drive-admin:%s|epoch:%d", d.Name(), mc.Map().Epoch)
		key = mac.Sum(nil)
	}
	m.Sign(key)
	return d.Handle(m)
}

// records dumps what every drive of both shards holds, asked of the
// drives directly (faults cleared): "shard/drive key" and, for a
// metadata record, its version.
func (f *lieFixture) records(t *testing.T) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	for ni, n := range f.mc.Nodes {
		for di := range n.Drives {
			ask := func(m *wire.Message) *wire.Message { return f.mc.driveReq(n, di, m) }
			resp := ask(&wire.Message{Type: wire.TGetKeyRange, EndKey: []byte{0xff}, KeyInclusive: true})
			if resp == nil || resp.Status != wire.StatusOK || resp.Truncated {
				t.Fatalf("dump of drive %d/%d: %+v", ni, di, resp)
			}
			for _, dk := range resp.Keys {
				out[fmt.Sprintf("%d/%d %q @%x", ni, di, dk, ask(&wire.Message{Type: wire.TGetVersion, Key: dk}).DBVersion)] = true
			}
		}
	}
	return out
}

// errFailedClosed marks an error a consumer is allowed under a lie: its
// rule says one drive's enumeration is not covered by another's, so the
// call refuses rather than act on less than everything.
var errFailedClosed = errors.New("failed closed")

// lieRow is what one consumer did on a fresh fixture under one lie.
type lieRow struct {
	answer  string
	err     error
	hung    bool            // the deadline ran out
	asked   uint64          // range requests of the most-asked drive
	lied    uint64          // lies the drive told
	rejects uint64          // replies the controller refused
	before  map[string]bool // what the drives held before the call
	after   map[string]bool // and after
}

func runLieRow(t *testing.T, lie kinetic.RangeLie, run func(ctx context.Context, f *lieFixture) (string, error)) lieRow {
	t.Helper()
	f := newLieFixture(t)
	row := lieRow{before: f.records(t)}
	f.node.SetDriveFaults(lieDrive, kinetic.Faults{RangeLie: lie})
	var ranges [3]uint64
	for di, d := range f.node.Drives {
		ranges[di] = d.Stats().Ranges.Load()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	row.answer, row.err = run(ctx, f)
	row.hung = ctx.Err() != nil
	row.lied = f.node.DriveFaultStats(lieDrive).RangeLies
	f.node.ClearDriveFaults(lieDrive)
	for di, d := range f.node.Drives {
		row.asked = max(row.asked, d.Stats().Ranges.Load()-ranges[di])
	}
	row.rejects = f.node.Controller.Stats().Snapshot().RangeRejects
	row.after = f.records(t)
	return row
}

// TestRangeLies runs every consumer of the range walk against every
// dishonest range reply on one drive of the window. The drives are
// outside the trusted base: a lie may cost range requests and show in
// the reject counter, never change an answer. Each call must return
// within its deadline and a bounded number of range requests; its
// answer must equal the honest run's, or — only where the consumer
// collects each replica's own records, as a delete and a handoff's
// release do — fail closed; the drives must end up holding what the
// honest run left, except that a call which failed closed may have left
// a record as it was; and the controller must have counted what it
// refused.
func TestRangeLies(t *testing.T) {
	consumers := []struct {
		name string
		run  func(ctx context.Context, f *lieFixture) (string, error)
	}{
		{"Scan", func(ctx context.Context, f *lieFixture) (string, error) {
			var out []string
			opts := core.ScanOptions{Prefix: "lie/", Limit: 5}
			for {
				page, err := f.sess.Scan(ctx, opts)
				if err != nil {
					return "", err
				}
				for _, e := range page.Entries {
					out = append(out, fmt.Sprintf("%s@%d", e.Key, e.Version))
				}
				if opts.Token = page.NextToken; opts.Token == "" {
					return strings.Join(out, " "), nil
				}
			}
		}},
		{"SweepTick", func(ctx context.Context, f *lieFixture) (string, error) {
			// Two generations, the first a deep pass; per tick the keys
			// scanned, the cursor left and the records restored.
			var out []string
			for wraps := 0; wraps < 2; {
				if len(out) == 4*(lieKeys/lieBudget+1) {
					return "", fmt.Errorf("the sweep does not wrap: %s", out)
				}
				rep, err := f.node.Controller.SweepTick(ctx)
				if err != nil {
					return "", err
				}
				out = append(out, fmt.Sprintf("%d:%q:%d", rep.Scanned, rep.Cursor, rep.RestoredRecords))
				if rep.Wrapped {
					wraps++
				}
			}
			return strings.Join(out, " "), nil
		}},
		{"ListVersions", func(ctx context.Context, f *lieFixture) (string, error) {
			var out []string
			for _, key := range f.intact {
				vers, err := f.sess.ListVersions(ctx, key, nil)
				if err != nil {
					return "", fmt.Errorf("%s: %w", key, err)
				}
				out = append(out, fmt.Sprint(key, vers))
			}
			return strings.Join(out, " "), nil
		}},
		{"Repair", func(ctx context.Context, f *lieFixture) (string, error) {
			var out []string
			for _, key := range append(f.damaged[:lieDamaged:lieDamaged], f.intact[:2]...) {
				rep, err := f.sess.Repair(ctx, key)
				if err != nil {
					return "", fmt.Errorf("%s: %w", key, err)
				}
				out = append(out, fmt.Sprintf("%s:%d:%d", key, rep.Versions, rep.Restored))
			}
			return strings.Join(out, " "), nil
		}},
		{"Delete", func(ctx context.Context, f *lieFixture) (string, error) {
			var errs []error
			for _, key := range f.keys[lieKeys/2:] {
				if err := f.sess.Delete(ctx, key, core.DeleteOptions{}); err != nil {
					errs = append(errs, fmt.Errorf("%w: delete %s: %v", errFailedClosed, key, err))
				}
			}
			return "deleted", errors.Join(errs...)
		}},
		{"ExportRange", func(ctx context.Context, f *lieFixture) (string, error) {
			own := f.mc.Map().ShardByID(0).Ranges[0]
			moved := core.HashRange{Start: (own.Start + own.End) / 2, End: own.End}
			manifest, err := f.mc.Handoff(ctx, 0, 1, moved)
			if manifest == nil {
				return "", err
			}
			// Past the export a lie can only hold up the release (it is
			// retriable): the handoff itself stands.
			if err != nil {
				if !strings.Contains(err.Error(), "cluster: release:") {
					return "", err
				}
				err = fmt.Errorf("%w: %v", errFailedClosed, err)
			}
			out := []string{fmt.Sprint(len(manifest.Entries))}
			dst := f.mc.Nodes[1].Controller.Session("w")
			for _, e := range manifest.Entries {
				val, meta, gerr := dst.Get(ctx, e.Key, core.GetOptions{})
				if gerr != nil {
					return "", fmt.Errorf("%s on its new shard: %w", e.Key, gerr)
				}
				out = append(out, fmt.Sprintf("%s@%d/%d=%s", e.Key, e.Version, meta.Version, val))
			}
			return strings.Join(out, " "), err
		}},
		{"WarmRanges", func(ctx context.Context, f *lieFixture) (string, error) {
			n, err := f.node.Controller.WarmRanges(ctx, 0)
			return fmt.Sprint(n), err
		}},
	}
	for _, c := range consumers {
		honest := runLieRow(t, "", c.run)
		if honest.err != nil || honest.rejects != 0 {
			t.Fatalf("%s, honest run: %v, %d replies rejected", c.name, honest.err, honest.rejects)
		}
		for _, lie := range []kinetic.RangeLie{kinetic.RangeReorder, kinetic.RangeOvershoot, kinetic.RangeStuck, kinetic.RangeCutToNothing} {
			t.Run(c.name+"/"+string(lie), func(t *testing.T) {
				row := runLieRow(t, lie, c.run)
				failedClosed := errors.Is(row.err, errFailedClosed)
				switch {
				case row.hung:
					t.Fatalf("no answer within the deadline, after %d range requests of one drive (the honest run makes %d): %v", row.asked, honest.asked, row.err)
				case row.err != nil && !failedClosed:
					t.Fatalf("failed with coverage intact: %v", row.err)
				case row.answer != honest.answer:
					t.Errorf("answer changed by a lie:\n got  %s\n want %s", row.answer, honest.answer)
				}
				if row.asked > 2*honest.asked+4 {
					t.Errorf("%d range requests of one drive, the honest run makes %d", row.asked, honest.asked)
				}
				for _, state := range []map[string]bool{row.after, honest.after} {
					for rec := range state {
						if row.after[rec] != honest.after[rec] && !(failedClosed && row.after[rec] == row.before[rec]) {
							t.Errorf("drive state differs from the honest run's: %s (held %t, honest run %t, before %t)",
								rec, row.after[rec], honest.after[rec], row.before[rec])
						}
					}
				}
				switch {
				case row.rejects > row.lied:
					t.Errorf("%d replies rejected, the drive lied %d times", row.rejects, row.lied)
				case row.lied > 0 && row.rejects == 0:
					t.Errorf("the drive lied %d times and no reply was rejected", row.lied)
				case lie != kinetic.RangeStuck && row.rejects != row.lied:
					// A stuck drive's first reply is its honest one.
					t.Errorf("%d replies rejected of %d lies", row.rejects, row.lied)
				}
			})
		}
	}
}

// The fixture every row of TestCoverListing starts from: one controller
// on six drives at three copies, its keys at two versions each. The
// listing's cover of that ring is drives 0, 1, 3 and 4 (⌊i·6/4⌋): each
// placement window {p, p+1, p+2} holds two of them, and 2 and 5 are
// asked only in a round that needs them.
const coverKeys = 30

var coverDrives = map[int]bool{0: true, 1: true, 3: true, 4: true}

type coverFixture struct {
	c    *Cluster
	sess *core.Session
	keys []string
	want string            // the honest listing: every key at version 1
	old  map[string][]byte // each key's version-0 metadata record
}

func newCoverFixture(t *testing.T) *coverFixture {
	t.Helper()
	c, err := Start(Options{Drives: 6, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	f := &coverFixture{c: c, sess: c.Controller.Session("w"), old: make(map[string][]byte)}
	var want []string
	for i := 0; i < coverKeys; i++ {
		key := fmt.Sprintf("cov/%03d", i)
		for v := 0; v < 2; v++ {
			if _, err := f.sess.Put(context.Background(), key, []byte(fmt.Sprintf("v%d", v)), core.PutOptions{}); err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				f.old[key] = c.driveReq(store.Placement(key, 6, 3)[0], &wire.Message{Type: wire.TGet, Key: store.MetaKey(key)}).Value
			}
		}
		f.keys = append(f.keys, key)
		want = append(want, key+"@1")
	}
	f.want = strings.Join(want, " ")
	return f
}

// windowCover is the two drives of the cover in key's placement window.
func windowCover(key string) []int {
	var out []int
	for _, di := range store.Placement(key, 6, 3) {
		if coverDrives[di] {
			out = append(out, di)
		}
	}
	return out
}

// list pages through the fixture's keys and reports, besides the
// answer, the range requests each drive served and the listing rounds
// that asked past the cover and replies refused while it ran.
func (f *coverFixture) list(t *testing.T) (answer string, asked [6]uint64, widened, rejects uint64) {
	t.Helper()
	var before [6]uint64
	for di, d := range f.c.Drives {
		before[di] = d.Stats().Ranges.Load()
	}
	st := f.c.Controller.Stats().Snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []string
	opts := core.ScanOptions{Prefix: "cov/", Limit: 7}
	for {
		page, err := f.sess.Scan(ctx, opts)
		if err != nil {
			t.Fatalf("listing: %v", err)
		}
		for _, e := range page.Entries {
			out = append(out, fmt.Sprintf("%s@%d", e.Key, e.Version))
		}
		if opts.Token = page.NextToken; opts.Token == "" {
			break
		}
	}
	for di, d := range f.c.Drives {
		asked[di] = d.Stats().Ranges.Load() - before[di]
	}
	now := f.c.Controller.Stats().Snapshot()
	return strings.Join(out, " "), asked, now.ScanWidened - st.ScanWidened, now.RangeRejects - st.RangeRejects
}

// checkAsked holds a listing to the drives it may ask: every drive when
// whole; otherwise the cover (silent, a drive that never answers, aside)
// and each other drive exactly once per widened round.
func checkAsked(t *testing.T, asked [6]uint64, widened uint64, whole bool, silent int) {
	t.Helper()
	for di, n := range asked {
		switch {
		case whole && n == 0:
			t.Errorf("drive %d not asked by a listing that must ask every drive", di)
		case !whole && coverDrives[di] && n == 0 && di != silent:
			t.Errorf("cover drive %d not asked", di)
		case !whole && !coverDrives[di] && n != widened:
			t.Errorf("drive %d, off the cover, asked %d times in %d widened rounds", di, n, widened)
		}
	}
}

// TestCoverListing: at six drives and three copies a listing asks the
// four drives of the cover, and the answer is the whole set's under
// every fault one drive per window can make — each range lie and a
// blackhole on a cover drive (those rounds ask the other two drives
// too), and a withheld or stale metadata record on one cover drive of
// every key's window. A dead drive, and a revived one until a sweeper
// pass has run over it, send the listing back to every drive. The limit
// row pins what is weaker than asking all drives: two cover drives of
// one window both without a key hide it from listings, not from Get,
// until the sweeper restores it.
func TestCoverListing(t *testing.T) {
	const faulty = 0 // a cover drive
	lie := func(l kinetic.RangeLie) func(*testing.T, *coverFixture) {
		return func(_ *testing.T, f *coverFixture) { f.c.SetDriveFaults(faulty, kinetic.Faults{RangeLie: l}) }
	}
	rows := []struct {
		name   string
		fault  func(*testing.T, *coverFixture)
		whole  bool // every drive is asked
		widens bool // some round asks past the cover
		lies   bool // each widened round is a refused reply
	}{
		{name: "healthy", fault: func(*testing.T, *coverFixture) {}},
		{name: "reorder", fault: lie(kinetic.RangeReorder), widens: true, lies: true},
		{name: "overshoot", fault: lie(kinetic.RangeOvershoot), widens: true, lies: true},
		{name: "stuck", fault: lie(kinetic.RangeStuck), widens: true, lies: true},
		{name: "cut-to-nothing", fault: lie(kinetic.RangeCutToNothing), widens: true, lies: true},
		{name: "blackhole", fault: func(_ *testing.T, f *coverFixture) {
			f.c.SetDriveFaults(faulty, kinetic.Faults{Blackhole: true})
		}, widens: true},
		{name: "withheld or stale", fault: func(t *testing.T, f *coverFixture) {
			for i, key := range f.keys {
				di := windowCover(key)[i%2]
				if i%2 == 0 {
					deleteDriveRecord(t, f.c, di, store.MetaKey(key))
				} else if resp := f.c.driveReq(di, &wire.Message{Type: wire.TPut, Key: store.MetaKey(key), Value: f.old[key], Force: true}); resp.Status != wire.StatusOK {
					t.Fatalf("planting a stale record on drive %d: %v", di, resp.Status)
				}
			}
		}},
		{name: "dead", fault: func(t *testing.T, f *coverFixture) {
			if err := f.c.Controller.MarkDriveDead(f.c.Drives[2].Name()); err != nil {
				t.Fatal(err)
			}
		}, whole: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := newCoverFixture(t)
			row.fault(t, f)
			answer, asked, widened, rejects := f.list(t)
			f.c.ClearDriveFaults(faulty)
			if answer != f.want {
				t.Errorf("answer changed:\n got  %s\n want %s", answer, f.want)
			}
			checkAsked(t, asked, widened, row.whole, faulty)
			if (widened > 0) != row.widens || row.lies && widened != rejects {
				t.Errorf("%d rounds widened, %d replies refused", widened, rejects)
			}
		})
	}

	t.Run("revived", func(t *testing.T) {
		f := newCoverFixture(t)
		ctl := f.c.Controller
		if err := ctl.MarkDriveDead(f.c.Drives[2].Name()); err != nil {
			t.Fatal(err)
		}
		if err := ctl.MarkDriveLive(f.c.Drives[2].Name()); err != nil {
			t.Fatal(err)
		}
		answer, asked, widened, _ := f.list(t)
		if answer != f.want {
			t.Errorf("before the sweep: %s", answer)
		}
		checkAsked(t, asked, widened, true, -1)
		for wrapped := false; !wrapped; {
			rep, err := ctl.SweepTick(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wrapped = rep.Wrapped
		}
		answer, asked, widened, _ = f.list(t)
		if answer != f.want || widened != 0 {
			t.Errorf("after the sweep: %d rounds widened, %s", widened, answer)
		}
		checkAsked(t, asked, widened, false, -1)
	})

	t.Run("limit: two cover drives of a window without the key", func(t *testing.T) {
		f := newCoverFixture(t)
		ctx := context.Background()
		hidden := f.keys[7]
		for _, di := range windowCover(hidden) {
			deleteDriveRecord(t, f.c, di, store.MetaKey(hidden))
		}
		if answer, _, _, _ := f.list(t); answer != strings.Replace(f.want, hidden+"@1 ", "", 1) {
			t.Errorf("listing with %s on one drive off the cover:\n got  %s\n want all but it", hidden, answer)
		}
		f.c.Controller.DropCaches()
		if val, meta, err := f.sess.Get(ctx, hidden, core.GetOptions{}); err != nil || string(val) != "v1" || meta.Version != 1 {
			t.Fatalf("Get %s: %q at %+v, %v", hidden, val, meta, err)
		}
		for wrapped := false; !wrapped; {
			rep, err := f.c.Controller.SweepTick(ctx)
			if err != nil || !rep.Deep {
				t.Fatalf("sweep tick: deep %t, %v", rep != nil && rep.Deep, err)
			}
			wrapped = rep.Wrapped
		}
		if answer, _, _, _ := f.list(t); answer != f.want {
			t.Errorf("listing after a deep sweep:\n got  %s\n want %s", answer, f.want)
		}
	})
}
