package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/kinetic/kclient"
)

// driveConn dials drive di of c under the account c's own connections
// sign with, for a test that plants, inspects or removes records behind
// the controller's back. The connection closes with the test.
func driveConn(t testing.TB, c *Controller, di int) *kclient.Client {
	t.Helper()
	cl, err := kclient.Dial(context.Background(), c.cfg.Drives[di].Dial, c.drives.Credentials(di))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// driveKeys lists drive di's keys in [start, end] through a connection
// of the test's own.
func driveKeys(t testing.TB, c *Controller, di int, start, end []byte) ([][]byte, error) {
	cl := driveConn(t, c, di)
	var out [][]byte
	for inclusive := true; ; inclusive = false {
		kr, err := cl.Range(context.Background(), start, end, inclusive, false, 0, false)
		if err != nil {
			return nil, err
		}
		for _, k := range kr.Keys {
			out = append(out, append([]byte(nil), k...))
		}
		if !kr.Truncated || len(kr.Keys) == 0 {
			kr.Release()
			return out, nil
		}
		start = out[len(out)-1]
		kr.Release()
	}
}

// eventually polls cond until it holds or a few seconds passed.
func eventually(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if cond() {
			return true
		}
	}
	return cond()
}
