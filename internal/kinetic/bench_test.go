package kinetic

import (
	"fmt"
	"testing"

	"repro/internal/kinetic/wire"
)

// Microbenchmarks for the drive data path.

func BenchmarkSkipListPut(b *testing.B) {
	s := newSkipList()
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.put(keys[i%len(keys)], val, nil)
	}
}

func BenchmarkSkipListGet(b *testing.B) {
	s := newSkipList()
	keys := make([][]byte, 4096)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
		s.put(keys[i], make([]byte, 1024), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := reply{pooled: true}
		s.get(keys[i%len(keys)], &out)
		out.release()
	}
}

func BenchmarkDriveHandlePut(b *testing.B) {
	d := NewDrive(Config{})
	val := make([]byte, 1024)
	reqs := make([]*wire.Message, 512)
	for i := range reqs {
		m := &wire.Message{
			Type: wire.TPut, Key: []byte(fmt.Sprintf("k%06d", i)),
			Value: val, Force: true, User: DefaultAdminIdentity,
		}
		m.Sign(DefaultAdminKey)
		reqs[i] = m
	}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := d.Handle(reqs[i%len(reqs)]); resp.Status != wire.StatusOK {
			b.Fatal(resp.Status)
		}
	}
}

func BenchmarkWireMarshal(b *testing.B) {
	m := &wire.Message{
		Type: wire.TPut, Seq: 9, User: "pesos-admin",
		Key: []byte("m\x00user000000000001"), Value: make([]byte, 1024),
		NewVersion: []byte{0, 0, 0, 1},
	}
	m.Sign(DefaultAdminKey)
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Marshal()
	}
}

func BenchmarkWireSignVerify(b *testing.B) {
	m := &wire.Message{Type: wire.TPut, Key: []byte("k"), Value: make([]byte, 1024)}
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Sign(DefaultAdminKey)
		if !m.Verify(DefaultAdminKey) {
			b.Fatal("verify failed")
		}
	}
}
