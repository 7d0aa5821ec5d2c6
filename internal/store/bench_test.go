package store

import "testing"

// Microbenchmarks for the record codec: every object put/get crosses
// this path (§2.2 payload encryption).

func benchRecord(size int) *Record {
	m := sampleMeta()
	m.Size = int64(size)
	return &Record{Meta: m, Payload: make([]byte, size)}
}

func BenchmarkEncodeRecord1K(b *testing.B)  { benchEncode(b, 1024, true) }
func BenchmarkEncodeRecord64K(b *testing.B) { benchEncode(b, 64<<10, true) }
func BenchmarkEncodePlain1K(b *testing.B)   { benchEncode(b, 1024, false) }

func benchEncode(b *testing.B, size int, enc bool) {
	var key [32]byte
	c, err := NewCodec(key, enc)
	if err != nil {
		b.Fatal(err)
	}
	rec := benchRecord(size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.EncodeRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeRecord1K(b *testing.B) {
	var key [32]byte
	c, _ := NewCodec(key, true)
	blob, _ := c.EncodeRecord(benchRecord(1024))
	b.SetBytes(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeRecord(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Placement("user000000012345", 16, 3)
	}
}

// BenchmarkChunkSealOpen is the per-chunk cost of a streamed byte at
// the codec, integrity step included, into recycled buffers as the
// stream paths call it: sealed, one AES-GCM pass each way and nothing
// else; plain (the §6.2 baseline), a copy plus the SHA-256 that stands
// in for the tag.
func BenchmarkChunkSealOpen(b *testing.B) {
	var key [32]byte
	payload := make([]byte, MaxObjectSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for _, mode := range []struct {
		name    string
		enabled bool
	}{{"sealed", true}, {"plain", false}} {
		c, err := NewCodec(key, mode.enabled)
		if err != nil {
			b.Fatal(err)
		}
		sealBuf := make([]byte, 0, MaxObjectSize+(4<<10))
		openBuf := make([]byte, 0, MaxObjectSize)
		b.Run(mode.name+"/seal", func(b *testing.B) {
			b.SetBytes(MaxObjectSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.EncodeChunkInto(sealBuf, "bench/object", 1, int64(i), payload); err != nil {
					b.Fatal(err)
				}
			}
		})
		blob, err := c.EncodeChunkInto(nil, "bench/object", 1, 7, payload)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(mode.name+"/open", func(b *testing.B) {
			b.SetBytes(MaxObjectSize)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.DecodeChunkInto(blob, openBuf, "bench/object", 1, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
