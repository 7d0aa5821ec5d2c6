package testbed

import (
	"bytes"
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/kinetic"
	"repro/internal/kinetic/wire"
	"repro/internal/store"
)

// chaosOpts is the fast-maintenance configuration the chaos tests
// share: the detector declares death after ~3 failed 50 ms probes and
// the sweeper walks a bounded window every 10 ms.
func chaosOpts(drives, replicas int) Options {
	return Options{
		Drives:               drives,
		Replicas:             replicas,
		DetectorInterval:     20 * time.Millisecond,
		DetectorProbeTimeout: 50 * time.Millisecond,
		DetectorDeadAfter:    3,
		SweepInterval:        10 * time.Millisecond,
		SweepKeysPerTick:     32,
	}
}

// driveAdminKey re-derives the controller's per-drive admin secret
// (HMAC over the attestation-provisioned seed) so tests can sign
// direct Drive.Handle inspection requests.
func (c *Cluster) driveAdminKey(driveName string) []byte {
	mac := hmac.New(sha256.New, c.adminSeed[:])
	mac.Write([]byte("drive-admin:"))
	mac.Write([]byte(driveName))
	return mac.Sum(nil)
}

// driveReq runs one signed admin request directly against drive di.
func (c *Cluster) driveReq(di int, m *wire.Message) *wire.Message {
	m.User = core.AdminIdentity
	m.Sign(c.driveAdminKey(c.Drives[di].Name()))
	return c.Drives[di].Handle(m)
}

// driveMetaVersion reads key's metadata version straight off drive di.
func driveMetaVersion(t *testing.T, c *Cluster, di int, key string) (int64, bool) {
	t.Helper()
	resp := c.driveReq(di, &wire.Message{Type: wire.TGet, Key: store.MetaKey(key)})
	if resp == nil || resp.Status == wire.StatusNotFound {
		return 0, false
	}
	if resp.Status != wire.StatusOK {
		t.Fatalf("drive %d meta read for %q: %v", di, key, resp.Status)
	}
	codec, err := store.NewCodec(c.objectKey, true)
	m := new(store.Meta)
	if err == nil {
		err = codec.DecodeMeta(resp.Value, key, m)
	}
	if err != nil {
		t.Fatalf("drive %d meta decode for %q: %v", di, key, err)
	}
	return m.Version, true
}

// driveHasRecord reports whether drive di holds the raw record dk.
func driveHasRecord(t *testing.T, c *Cluster, di int, dk []byte) bool {
	t.Helper()
	resp := c.driveReq(di, &wire.Message{Type: wire.TGet, Key: dk})
	if resp == nil {
		return false
	}
	if resp.Status != wire.StatusOK && resp.Status != wire.StatusNotFound {
		t.Fatalf("drive %d raw read: %v", di, resp.Status)
	}
	return resp.Status == wire.StatusOK
}

// deleteDriveRecord force-deletes a raw record off drive di,
// simulating a replica that silently lost it.
func deleteDriveRecord(t *testing.T, c *Cluster, di int, dk []byte) {
	t.Helper()
	if resp := c.driveReq(di, &wire.Message{Type: wire.TDelete, Key: dk, Force: true}); resp == nil || resp.Status != wire.StatusOK {
		t.Fatalf("drive %d raw delete failed: %+v", di, resp)
	}
}

// TestDriveKillRereplication is the headline chaos acceptance test: a
// closed-loop write load runs while one drive is blackholed; the
// detector must mark it dead, placement must substitute the spare,
// and the background sweeper must re-replicate every key back to full
// replica count on the surviving drives — with zero acked writes lost
// and no client intervention beyond retry.
func TestDriveKillRereplication(t *testing.T) {
	const (
		drives   = 5
		replicas = 3
		nKeys    = 40
		workers  = 4
		victim   = 2
	)
	c, err := Start(chaosOpts(drives, replicas))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	clients := make([]*client.Client, workers)
	for w := range clients {
		if clients[w], _, err = c.NewClient(fmt.Sprintf("chaos-w%d", w)); err != nil {
			t.Fatal(err)
		}
	}

	// Single writer per key: worker w owns every key ki with
	// ki % workers == w, so acked[ki] is racelessly the highest
	// version that writer saw acknowledged.
	keys := make([]string, nKeys)
	vals := make([][]byte, nKeys)
	acked := make([]int64, nKeys)
	for ki := range keys {
		keys[ki] = fmt.Sprintf("chaos/%04d", ki)
		vals[ki] = []byte(fmt.Sprintf("value-%04d", ki))
		v, err := clients[ki%workers].Put(ctx, keys[ki], vals[ki], client.PutOptions{})
		if err != nil {
			t.Fatalf("load %q: %v", keys[ki], err)
		}
		acked[ki] = v
	}

	stop := make(chan struct{})
	failures := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ki := (w + i*workers) % nKeys
				deadline := time.Now().Add(20 * time.Second)
				for {
					v, err := cl.Put(ctx, keys[ki], vals[ki], client.PutOptions{})
					if err == nil {
						acked[ki] = v
						break
					}
					if time.Now().After(deadline) {
						failures[w] = fmt.Errorf("write to %q never recovered: %w", keys[ki], err)
						return
					}
					time.Sleep(5 * time.Millisecond)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(w)
	}

	// Kill one drive mid-load and wait for the detector verdict.
	time.Sleep(100 * time.Millisecond)
	c.SetDriveFaults(victim, kinetic.Faults{Blackhole: true})
	victimName := c.Drives[victim].Name()
	deadBy := time.Now().Add(10 * time.Second)
	for dead := false; !dead; {
		if time.Now().After(deadBy) {
			t.Fatalf("detector never marked %s dead: %+v", victimName, c.Controller.DriveHealth())
		}
		for _, h := range c.Controller.DriveHealth() {
			if h.Name == victimName && h.State == core.DriveDead {
				dead = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Keep the load running past detection so writes land on the
	// substituted placement, then stop.
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	for w, err := range failures {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	// Convergence: every key must reach full replica count on the
	// surviving drives, each copy at least as new as the last ack.
	var live []int
	for di := 0; di < drives; di++ {
		if di != victim {
			live = append(live, di)
		}
	}
	convBy := time.Now().Add(20 * time.Second)
	for {
		lagKey, lagCount := "", -1
		for ki := range keys {
			n := 0
			for _, di := range live {
				if v, ok := driveMetaVersion(t, c, di, keys[ki]); ok && v >= acked[ki] {
					n++
				}
			}
			if n < replicas {
				lagKey, lagCount = keys[ki], n
				break
			}
		}
		if lagCount < 0 {
			break
		}
		if time.Now().After(convBy) {
			t.Fatalf("re-replication stalled: %q has %d fresh live replicas, want %d (sweeper: %+v)",
				lagKey, lagCount, replicas, c.Controller.SweeperStatus())
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Zero acked writes lost, observed through the normal client path
	// with the victim still dead.
	for ki := range keys {
		val, meta, err := clients[0].Get(ctx, keys[ki], client.GetOptions{})
		if err != nil {
			t.Fatalf("read %q after re-replication: %v", keys[ki], err)
		}
		if meta.Version < acked[ki] {
			t.Fatalf("acked write lost: %q at version %d < acked %d", keys[ki], meta.Version, acked[ki])
		}
		if !bytes.Equal(val, vals[ki]) {
			t.Fatalf("payload mismatch on %q", keys[ki])
		}
	}

	st := c.Controller.Stats().Snapshot()
	if st.DriveDeaths == 0 {
		t.Fatal("no drive death recorded in stats")
	}
	if st.Repairs == 0 {
		t.Fatal("no re-replication recorded in stats")
	}
}

// TestSweeperBoundedBudget drives the incremental sweeper by hand
// (intervals zero) over a keyspace larger than one tick's budget:
// every tick must scan at most SweepKeysPerTick keys — never the full
// keyspace — and the cursor-resumed passes must still converge all
// injected replica damage.
func TestSweeperBoundedBudget(t *testing.T) {
	const (
		nKeys  = 100
		budget = 16
		damage = 30
		hurt   = 1 // drive that loses records
	)
	c, err := Start(Options{
		Drives: 3, Replicas: 2,
		SweepKeysPerTick: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	cl, _, err := c.NewClient("sweep-test")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, nKeys)
	vers := make([]int64, nKeys)
	for ki := range keys {
		keys[ki] = fmt.Sprintf("sweep/%04d", ki)
		if vers[ki], err = cl.Put(ctx, keys[ki], []byte(fmt.Sprintf("v-%04d", ki)), client.PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	// Damage: silently delete both records (meta + object) for the
	// first `damage` keys replicated on the hurt drive.
	var damaged []int
	for ki := range keys {
		if len(damaged) == damage {
			break
		}
		if _, ok := driveMetaVersion(t, c, hurt, keys[ki]); !ok {
			continue
		}
		deleteDriveRecord(t, c, hurt, store.MetaKey(keys[ki]))
		deleteDriveRecord(t, c, hurt, store.ObjectKey(keys[ki], vers[ki]))
		damaged = append(damaged, ki)
	}
	if len(damaged) < damage/2 {
		t.Fatalf("only %d keys replicated on drive %d, cannot exercise repair", len(damaged), hurt)
	}

	// Tick until two full generations complete. The per-tick bound is
	// the hard assertion: a sweeper that reads the whole keyspace per
	// tick fails here even though it would converge faster.
	wraps, ticksFirstGen, ticks := 0, 0, 0
	for wraps < 2 {
		if ticks++; ticks > 80 {
			t.Fatalf("sweeper did not finish 2 generations in %d ticks: %+v", ticks, c.Controller.SweeperStatus())
		}
		rep, err := c.Controller.SweepTick(ctx)
		if err != nil {
			t.Fatalf("tick %d: %v", ticks, err)
		}
		if rep.Scanned > budget {
			t.Fatalf("tick %d scanned %d keys, budget is %d", ticks, rep.Scanned, budget)
		}
		if rep.Wrapped {
			wraps++
			if wraps == 1 {
				ticksFirstGen = ticks
			}
		}
	}
	if min := (nKeys + budget - 1) / budget; ticksFirstGen < min {
		t.Fatalf("first full pass took %d ticks; %d keys at budget %d need >= %d — the sweep is not incremental",
			ticksFirstGen, nKeys, budget, min)
	}

	// Every damaged replica restored in place.
	for _, ki := range damaged {
		v, ok := driveMetaVersion(t, c, hurt, keys[ki])
		if !ok || v < vers[ki] {
			t.Fatalf("key %q not restored on drive %d (have %d ok=%v, want >= %d)", keys[ki], hurt, v, ok, vers[ki])
		}
		if !driveHasRecord(t, c, hurt, store.ObjectKey(keys[ki], v)) {
			t.Fatalf("object record for %q missing on drive %d after sweep", keys[ki], hurt)
		}
	}
	if st := c.Controller.SweeperStatus(); st.Repaired == 0 || st.Restored == 0 {
		t.Fatalf("sweeper reports no repairs after converging damage: %+v", st)
	}
}

// TestRepairWritesTheRecordsItOpened: a plain repair restores a
// replica's missing version records and head from the bytes it opened,
// never by asking another drive to push its own copy — only chunk
// records, too large to carry, move drive to drive.
func TestRepairWritesTheRecordsItOpened(t *testing.T) {
	c, err := Start(Options{Drives: 3, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Controller.Session("w")
	for v := 0; v < 2; v++ {
		if _, err := s.Put(ctx, "k", []byte(fmt.Sprintf("v%d", v)), core.PutOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	victim := store.Placement("k", 3, 3)[1]
	lost := [][]byte{store.ObjectKey("k", 0), store.ObjectKey("k", 1), store.MetaKey("k")}
	for _, dk := range lost {
		deleteDriveRecord(t, c, victim, dk)
	}
	pushes := func() (n uint64) {
		for _, d := range c.Drives {
			n += d.Stats().P2PPushes.Load()
		}
		return n
	}
	before := pushes()
	report, err := s.Repair(ctx, "k")
	if err != nil || report.Restored != len(lost) {
		t.Fatalf("repair: %+v, %v; want %d records restored", report, err, len(lost))
	}
	if got := pushes() - before; got != 0 {
		t.Errorf("the repair asked drives for %d P2P pushes, want 0", got)
	}
	for _, dk := range lost {
		if !driveHasRecord(t, c, victim, dk) {
			t.Errorf("%q not back on drive %d", dk, victim)
		}
	}
}

// TestChaosPlanDeterministic pins the chaos engine's only use of
// randomness: the same seed must always yield the identical action
// schedule.
func TestChaosPlanDeterministic(t *testing.T) {
	a := NewChaosPlan(7, 5, 2*time.Second, 12)
	b := NewChaosPlan(7, 5, 2*time.Second, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different plans:\n%+v\n%+v", a, b)
	}
	if len(a.Actions) != 24 {
		t.Fatalf("12 events should emit 24 actions (fault+heal pairs), got %d", len(a.Actions))
	}
	for i := 1; i < len(a.Actions); i++ {
		if a.Actions[i].At < a.Actions[i-1].At {
			t.Fatalf("actions out of order at %d: %+v", i, a.Actions)
		}
	}
	if c := NewChaosPlan(8, 5, 2*time.Second, 12); reflect.DeepEqual(a.Actions, c.Actions) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

// TestAttestPartitionFailsOver cuts a healthy active controller off
// from the attestation service: its lease expires and the hot standby
// must take the shard over — the "wedged but alive" failure the lease
// protocol exists for.
func TestAttestPartitionFailsOver(t *testing.T) {
	mc, err := StartMulti(2, Options{StandbysPerShard: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	ttl := 250 * time.Millisecond
	if err := mc.StartHA(ttl); err != nil {
		t.Fatal(err)
	}
	defer mc.StopHA()

	mc.PartitionAttest("pesos-0")
	waitCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	newOwner, err := mc.WaitForOwner(waitCtx, 0, "pesos-0")
	cancel()
	if err != nil {
		t.Fatalf("no takeover after attest partition: %v", err)
	}
	if newOwner != "pesos-0-s0" {
		t.Fatalf("takeover by %q, want the standby", newOwner)
	}
	mc.HealAttest("pesos-0")
}

// killStreamReader kills a drive partway through a streamed upload:
// once `after` bytes have been read by the chunking writer, the
// trigger blackholes the victim.
type killStreamReader struct {
	r       io.Reader
	after   int
	read    int
	once    sync.Once
	trigger func()
}

func (k *killStreamReader) Read(p []byte) (int, error) {
	n, err := k.r.Read(p)
	k.read += n
	if k.read >= k.after {
		k.once.Do(k.trigger)
	}
	return n, err
}

// TestStreamSurvivesDriveKillMidPut kills a drive that holds chunk
// records in the middle of a multi-chunk PutStream, lets the detector
// and sweeper recover, and requires a byte-identical GetStream while
// the victim is still dead: no corrupt or missing chunks.
func TestStreamSurvivesDriveKillMidPut(t *testing.T) {
	const (
		drives   = 4
		replicas = 2
		key      = "stream/victim"
	)
	c, err := Start(chaosOpts(drives, replicas))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	cl, _, err := c.NewClient("stream-chaos")
	if err != nil {
		t.Fatal(err)
	}

	// putStream is PutStream with per-op errors folded in: a failed
	// operation arrives as OpResult.Err with a nil transport error.
	putStream := func(r io.Reader) (client.OpResult, error) {
		res, err := cl.PutStream(ctx, key, r, client.PutOptions{})
		if err == nil && res.Err != nil {
			err = res.Err
		}
		return res, err
	}

	// Seed a 3-chunk object (payload > 2 × MaxObjectSize forces the
	// chunked path) so we can pick a victim that provably holds chunk
	// records for this key.
	payload := make([]byte, 3*store.MaxObjectSize-512)
	rand.New(rand.NewSource(7)).Read(payload)
	if _, err := putStream(bytes.NewReader(payload)); err != nil {
		t.Fatalf("seed PutStream: %v", err)
	}
	set := chunkSet(t, c.Controller, key)
	victim := -1
	for di := 0; di < drives && victim < 0; di++ {
		for idx := int64(0); idx < 3; idx++ {
			if driveHasRecord(t, c, di, store.ChunkKey(key, set, idx)) {
				victim = di
			}
		}
	}
	if victim < 0 {
		t.Fatal("no drive holds chunk records for the seeded object")
	}

	// Overwrite with fresh payload, blackholing the victim once the
	// stream is past its first chunk.
	rand.New(rand.NewSource(8)).Read(payload)
	kr := &killStreamReader{
		r:     bytes.NewReader(payload),
		after: store.MaxObjectSize + store.MaxObjectSize/2,
		trigger: func() {
			c.SetDriveFaults(victim, kinetic.Faults{Blackhole: true})
		},
	}
	if _, err := putStream(kr); err != nil {
		// The interrupted stream failed cleanly; retry until the
		// detector substitutes the dead drive and the write commits.
		deadline := time.Now().Add(20 * time.Second)
		for {
			if _, err = putStream(bytes.NewReader(payload)); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("PutStream never recovered from the drive kill: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}

	// Let the background sweeper complete a full pass over the
	// post-kill keyspace before reading back.
	gen0 := c.Controller.SweeperStatus().Generation
	sweepBy := time.Now().Add(15 * time.Second)
	for c.Controller.SweeperStatus().Generation < gen0+2 {
		if time.Now().After(sweepBy) {
			t.Fatalf("sweeper made no progress: %+v", c.Controller.SweeperStatus())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Full read-back with the victim still blackholed.
	rc, meta, err := cl.GetStream(ctx, key, client.GetOptions{})
	if err != nil {
		t.Fatalf("GetStream after recovery: %v", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("streamed object corrupted: got %d bytes, want %d (meta %+v)", len(got), len(payload), meta)
	}
}
