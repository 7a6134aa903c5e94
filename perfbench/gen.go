package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"time"

	"horus/internal/loadgen"
)

// arrivals generates one open-loop cohort's due times by thinning
// (Ogata): exponential candidate gaps at the shape's peak rate, each
// kept with probability λ(t)/λmax. The stream depends only on its seed,
// never on how the system under test behaves, which is what makes the
// loop open.
type arrivals struct {
	rng    *rand.Rand
	spec   loadgen.CohortSpec
	rate   float64 // mean casts/s
	lamMax float64
	t      time.Duration
	stop   time.Duration
}

func newArrivals(seed int64, spec loadgen.CohortSpec, rate float64, start, stop time.Duration) *arrivals {
	a := &arrivals{rng: rand.New(rand.NewSource(seed)), spec: spec, rate: rate, t: start, stop: stop}
	switch spec.Shape {
	case loadgen.ShapeDiurnal:
		a.lamMax = rate * (1 + spec.Duty)
	case loadgen.ShapeBurst:
		a.lamMax = rate / spec.Duty
	default:
		a.lamMax = rate
	}
	a.spec.Start = start
	return a
}

func (a *arrivals) lambda(t time.Duration) float64 {
	switch a.spec.Shape {
	case loadgen.ShapeDiurnal:
		return a.rate * (1 + a.spec.Duty*math.Sin(2*math.Pi*float64(t)/float64(a.spec.Period)))
	case loadgen.ShapeBurst:
		if float64((t-a.spec.Start)%a.spec.Period) < a.spec.Duty*float64(a.spec.Period) {
			return a.rate / a.spec.Duty
		}
		return 0
	}
	return a.rate
}

// next returns the next due time, or false once the stream has closed.
func (a *arrivals) next() (time.Duration, bool) {
	if a.lamMax <= 0 {
		return 0, false
	}
	for {
		a.t += time.Duration(a.rng.ExpFloat64() / a.lamMax * float64(time.Second))
		if a.t >= a.stop {
			return 0, false
		}
		if a.rng.Float64()*a.lamMax <= a.lambda(a.t) {
			return a.t, true
		}
	}
}

// mixSeed derives an independent stream seed from (seed, a, b), so
// adding a group or cohort never perturbs another stream.
func mixSeed(seed int64, a, b int) int64 {
	return int64(splitmix(splitmix(uint64(seed)^uint64(a)<<20) ^ uint64(b)<<8))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Payload layout. Every cast body carries its due time, a checksum of
// everything after the checksum field, the origin's tag and its
// per-origin sequence number; the rest is seeded filler, so FRAG
// reassembly is checked byte for byte.
//
//	[0:8)   due time, ns of fabric time
//	[8:12)  CRC-32 (IEEE) of body[12:]
//	[12:16) origin tag (member index, or slot<<16|incarnation)
//	[16:24) sequence number, 1-based per origin
//	[24:)   filler
const payloadHeader = 24

func makePayload(size int, due time.Duration, origin uint32, seq uint64) []byte {
	if size < payloadHeader {
		size = payloadHeader
	}
	b := make([]byte, size)
	binary.BigEndian.PutUint64(b[0:], uint64(due))
	binary.BigEndian.PutUint32(b[12:], origin)
	binary.BigEndian.PutUint64(b[16:], seq)
	x := splitmix(uint64(origin)<<40 ^ seq)
	for i := payloadHeader; i < size; i += 8 {
		x = splitmix(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(b[i:], w[:])
	}
	binary.BigEndian.PutUint32(b[8:], crc32.ChecksumIEEE(b[12:]))
	return b
}

// payload is a decoded, integrity-checked cast body.
type payload struct {
	due    time.Duration
	origin uint32
	seq    uint64
}

func parsePayload(b []byte) (payload, bool) {
	if len(b) < payloadHeader || binary.BigEndian.Uint32(b[8:]) != crc32.ChecksumIEEE(b[12:]) {
		return payload{}, false
	}
	return payload{
		due:    time.Duration(binary.BigEndian.Uint64(b[0:])),
		origin: binary.BigEndian.Uint32(b[12:]),
		seq:    binary.BigEndian.Uint64(b[16:]),
	}, true
}
