package proto

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// codecShapes is one Message per protocol shape, every field group
// populated at least once. The fuzz corpus and the round-trip test both
// walk it, so a new message shape added without codec coverage fails
// here first.
func codecShapes() []Message {
	reg := Registration{Name: "cpu.h1", Kind: "series", Host: "h1", Owner: "memory.h1",
		TTL: 30 * time.Second, Expires: 95 * time.Second}
	samples := []Sample{{At: time.Second, Value: 0.25}, {At: 2 * time.Second, Value: -1.5}}
	held := WindowToken(0x9E3779B97F4A7C15)
	return []Message{
		{},
		{Type: MsgPing, From: "h0", ID: 7},
		{Type: MsgPong, From: "h1", ID: 9, ReplyTo: 7},
		{Type: MsgRegister, From: "h1", ID: 1, Reg: reg},
		{Type: MsgLookup, From: "h2", ID: 2, Kind: "series", Name: "cpu.h1"},
		{Type: MsgLookupReply, From: "ns", ID: 3, ReplyTo: 2, Regs: []Registration{reg, {Name: "b"}}},
		{Type: MsgStore, From: "s", ID: 4, Series: "cpu.h1", Samples: samples},
		{Type: MsgReplSync, From: "c", ID: 5, Series: "cpu.h1", Count: -1},
		{Type: MsgStoreAck, From: "m", ID: 6, ReplyTo: 5, Series: "cpu.h1", Samples: samples},
		{Type: MsgBatchForecastReply, From: "f", ID: 8, ReplyTo: 7, Series: "cpu.h1", Count: 16},
		{Type: MsgToken, From: "h3", ID: 10, Clique: "cl0", TokenSeq: 41, Epoch: 1 << 20},
		{Type: MsgBatchFetch, Version: V3, From: "gw", ID: 11,
			Queries: []SeriesRequest{{Series: "cpu.h1", Count: 1}, {Series: "cpu.h2", Count: -2}}},
		{Type: MsgBatchFetchReply, Version: V3, From: "m", ID: 12, ReplyTo: 11,
			Results: []SeriesResult{
				{Series: "cpu.h1", Samples: samples},
				{Series: "cpu.h2", Error: "gone", Code: CodeUnknownSeries},
			}},
		{Type: MsgBatchForecastReply, Version: V3, From: "f", ID: 13, ReplyTo: 11,
			Forecasts: []ForecastResult{
				{Series: "cpu.h1", Value: 1.25, MAE: 0.1, MSE: 0.02, Method: "median", Count: 8},
				{Series: "cpu.h2", Error: "down", Code: CodeBackendDown},
			}},
		{Type: MsgQueryFetchReply, Version: V3, From: "gw", ID: 14, ReplyTo: 2, Error: "boom",
			Results: []SeriesResult{{Series: "a", Samples: samples}, {Series: "b", Samples: samples[:1]}}},
		{Type: MsgRegister, Version: V3, From: "m1", ID: 15,
			Reg: Registration{Name: "cpu.h1", Kind: "series", Host: "h1", Owner: "memory.h1",
				TTL: 30 * time.Second, Replicas: []string{"h2", "h3"}}},
		{Type: MsgRegisterBulk, Version: V3, From: "m1", ID: 16,
			Regs: []Registration{reg, {Name: "b", Replicas: []string{"h4"}}}},
		{Type: MsgReplStore, Version: V3, From: "m1", ID: 17,
			Series: "cpu.h1", Samples: samples, Total: 42},
		{Type: MsgReplWindow, Version: V3, From: "m1", ID: 18,
			Series: "cpu.h1", Samples: samples, Total: 2},
		{Type: MsgReplSyncReply, Version: V3, From: "m2", ID: 19, ReplyTo: 18,
			Results: []SeriesResult{{Series: "cpu.h1", Samples: samples, Replica: true, Lag: 3}}},
		{Type: MsgReplRepair, Version: V3, From: "master", ID: 20,
			Reg: Registration{Name: "memory.h1", Host: "h2", Replicas: []string{"h3"}}},
		{Type: MsgReplAck, Version: V3, From: "m2", ID: 21, ReplyTo: 20, Count: 2, Total: 64},
		{Type: MsgQueryForecastReply, Version: V3, From: "gw", ID: 22, ReplyTo: 11,
			Forecasts: []ForecastResult{
				{Series: "cpu.h1", Value: 2.5, MAE: 0.2, MSE: 0.04, Method: "mean", Count: 12,
					Error: "degraded", Code: CodeDegraded, Replica: true, Lag: 5},
				{Series: "cpu.h2", Value: 1.0, Method: "last", Count: 3},
			}},
		{Type: MsgQueryFetchReply, Version: V3, From: "gw", ID: 23, ReplyTo: 11,
			Error: "gateway gw overloaded", Code: CodeOverloaded, RetryAfter: 500 * time.Millisecond},
		// Window tokens: a forecaster's tokened fetch, a memory server's
		// reply with an unchanged and a changed window, and a reply in
		// which only a later result is stamped.
		{Type: MsgBatchFetch, Version: V3, From: "fc", ID: 30,
			Queries: []SeriesRequest{{Series: "cpu.h1", Count: 256, Token: held}, {Series: "cpu.h2", Count: 256, Token: AskToken}}},
		{Type: MsgBatchFetchReply, Version: V3, From: "m", ID: 31, ReplyTo: 30,
			Results:      []SeriesResult{{Series: "cpu.h1"}, {Series: "cpu.h2", Samples: samples, Replica: true, Lag: 2}},
			ResultTokens: []WindowToken{held, 1 << 40}},
		{Type: MsgBatchFetchReply, Version: V3, From: "m", ID: 32, ReplyTo: 30,
			Results:      []SeriesResult{{Series: "cpu.h3", Error: "gone", Code: CodeUnknownSeries}, {Series: "cpu.h1"}},
			ResultTokens: []WindowToken{0, held}},
	}
}

func TestCodecRoundTripEveryShape(t *testing.T) {
	for i, m := range codecShapes() {
		enc := AppendEncode(nil, &m)
		if got, want := len(enc), EncodedSize(&m); got != want {
			t.Fatalf("shape %d: EncodedSize %d != encoded length %d", i, want, got)
		}
		var back Message
		if err := Decode(enc, &back); err != nil {
			t.Fatalf("shape %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("shape %d: round-trip mismatch:\n in: %+v\nout: %+v", i, m, back)
		}
		re := AppendEncode(nil, &back)
		if string(re) != string(enc) {
			t.Fatalf("shape %d: re-encode not byte-identical", i)
		}
	}
}

// goldenFramesSHA256 is the digest of every codecShapes frame, each
// behind its uvarint length. A codec edit that moves any byte of any
// shape changes it; only a deliberate wire change re-records it.
const goldenFramesSHA256 = "a61c56248607de5bd83b8ea7cb2a8354c881d229d3f12b848dbd6c13aadcfe31"

func TestCodecFramesGolden(t *testing.T) {
	h := sha256.New()
	for _, m := range codecShapes() {
		enc := AppendEncode(nil, &m)
		h.Write(binary.AppendUvarint(nil, uint64(len(enc))))
		h.Write(enc)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenFramesSHA256 {
		t.Fatalf("codecShapes frames hash to %s, want %s: a frame moved", got, goldenFramesSHA256)
	}
}

// TestTokenPricedByPresence: a token costs its flag bit and 8 bytes,
// whatever its value, so a frame's length — and a simulated transfer's
// cost — depends on which entries carry a token, never on the stamps,
// which start at a random point in every process.
func TestTokenPricedByPresence(t *testing.T) {
	m := batchReply(3, 4)
	m.Queries = []SeriesRequest{{Series: "q"}}
	bare := EncodedSize(&m)
	m.ResultTokens = make([]WindowToken, 3)
	if EncodedSize(&m) != bare {
		t.Fatal("zero tokens grew the frame")
	}
	for _, v := range []WindowToken{1, 1 << 40, math.MaxUint64 - 1, AskToken} {
		m.ResultTokens[1], m.Queries[0].Token = v, v
		if got, want := EncodedSize(&m), bare+2*tokenSize; got != want {
			t.Fatalf("tokens %#x: %d bytes, want %d (%d untokened)", uint64(v), got, want, bare)
		}
	}
}

// withSampleCount is frame enc with its header's sample count replaced
// by n. The count follows Type and Version, each one byte in every
// shape here.
func withSampleCount(enc []byte, n uint64) []byte {
	_, k := binary.Uvarint(enc[2:])
	return append(binary.AppendUvarint(append([]byte(nil), enc[:2]...), n), enc[2+k:]...)
}

// TestDecodeSampleCountHostile: runs that do not add up to the header's
// sample count, in either direction, are ErrTruncated, and a count the
// frame's bytes could not hold fails before the sample array is made.
func TestDecodeSampleCountHostile(t *testing.T) {
	m := codecShapes()[14] // a reply with runs of 2 and 1
	enc := AppendEncode(nil, &m)
	for name, n := range map[string]uint64{
		"one above its runs": 4,
		"one below its runs": 2,
		"none announced":     0,
		"more than fits":     uint64(len(enc)),
		"far more than fits": 1 << 20,
		"beyond any int":     math.MaxUint64,
	} {
		var back Message
		frame := withSampleCount(enc, n)
		if err := Decode(frame, &back); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: want ErrTruncated, got %v", name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 10 {
			Decode(frame, &back)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 4096 {
			t.Errorf("%s: a refused frame allocated %d bytes", name, per)
		}
	}
	var back Message
	if err := Decode(withSampleCount(enc, 3), &back); err != nil || !reflect.DeepEqual(back, m) {
		t.Fatalf("the true count: %v", err)
	}
}

// TestCodecCoversEveryField fills every exported field of Message, down
// through its structs and into every slice element, with a distinct
// non-zero value. A field that AppendEncode or Decode misses then fails
// the round trip, and one EncodedSize misses fails the length check.
func TestCodecCoversEveryField(t *testing.T) {
	next := 0
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() {
					fill(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.String:
			v.SetString(fmt.Sprintf("s%d", next))
		case reflect.Int, reflect.Int64:
			v.SetInt(int64(next))
		case reflect.Uint64:
			v.SetUint(uint64(next))
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.25)
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("%s: no value for a %s field; teach the codec and this test its kind", path, v.Kind())
		}
	}
	var m Message
	fill(reflect.ValueOf(&m).Elem(), "Message")

	enc := AppendEncode(nil, &m)
	if got := EncodedSize(&m); got != len(enc) {
		t.Errorf("EncodedSize %d != encoded length %d: a field is not sized", got, len(enc))
	}
	var back Message
	if err := Decode(enc, &back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	in, out := reflect.ValueOf(m), reflect.ValueOf(back)
	for i := 0; i < in.NumField(); i++ {
		if !reflect.DeepEqual(in.Field(i).Interface(), out.Field(i).Interface()) {
			t.Errorf("Message.%s does not survive the round trip: %+v -> %+v",
				in.Type().Field(i).Name, in.Field(i), out.Field(i))
		}
	}
}

// TestDecodeSharedBackingCapPinned proves the single-backing-array
// optimization cannot let an append on one result's samples clobber a
// neighbor's.
func TestDecodeSharedBackingCapPinned(t *testing.T) {
	m := Message{Type: MsgBatchFetchReply, Version: V3, Results: []SeriesResult{
		{Series: "a", Samples: []Sample{{At: 1, Value: 1}}},
		{Series: "b", Samples: []Sample{{At: 2, Value: 2}}},
	}}
	var back Message
	if err := Decode(AppendEncode(nil, &m), &back); err != nil {
		t.Fatal(err)
	}
	_ = append(back.Results[0].Samples, Sample{At: 99, Value: 99})
	if back.Results[1].Samples[0].Value != 2 {
		t.Fatal("append on result 0 clobbered result 1: backing capacity not pinned")
	}
}

// batchReply builds the gateway's fetch reply shape: nSeries results of
// perSeries samples each, with realistic nanosecond timestamps.
func batchReply(nSeries, perSeries int) Message {
	m := Message{Type: MsgQueryFetchReply, Version: V3, From: "gw", ID: 9, ReplyTo: 8}
	for i := 0; i < nSeries; i++ {
		s := make([]Sample, perSeries)
		for k := range s {
			s[k] = Sample{At: time.Duration(k+1) * 10 * time.Second, Value: float64(i*perSeries+k) * 0.5}
		}
		m.Results = append(m.Results, SeriesResult{Series: fmt.Sprintf("cpu.host-%03d", i), Samples: s})
	}
	return m
}

// TestDecodeAllocsIndependentOfSampleCount: the shared sample backing is
// sized once, so a reply costs the same allocations whether it carries 8
// or 256 samples a series — From, the Results slice, one string per
// series and one sample array — and nothing is regrown or abandoned.
func TestDecodeAllocsIndependentOfSampleCount(t *testing.T) {
	for _, per := range []int{8, 256} {
		m := batchReply(20, per)
		enc := AppendEncode(nil, &m)
		var back Message
		allocs := testing.AllocsPerRun(50, func() {
			if err := Decode(enc, &back); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(len(m.Results) + 3); allocs != want {
			t.Errorf("20x%d reply: %v allocations per Decode, want %v", per, allocs, want)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("20x%d reply: round-trip mismatch", per)
		}
		total := 0
		for _, r := range back.Results {
			total += cap(r.Samples)
		}
		if total != 20*per {
			t.Errorf("20x%d reply: pinned capacities sum to %d, want %d", per, total, 20*per)
		}
	}
}

func TestDecodeTruncatedTyped(t *testing.T) {
	m := codecShapes()[12] // batch fetch reply with samples
	enc := AppendEncode(nil, &m)
	for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		var back Message
		err := Decode(enc[:cut], &back)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: want ErrTruncated, got %v", cut, err)
		}
	}
}

func TestDecodeTrailingBytesTyped(t *testing.T) {
	m := Message{Type: MsgPing, From: "h0"}
	enc := append(AppendEncode(nil, &m), 0xde, 0xad)
	var back Message
	if err := Decode(enc, &back); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("want ErrTrailingBytes, got %v", err)
	}
}

func TestDecodeOversizedFrameTyped(t *testing.T) {
	var back Message
	if err := Decode(make([]byte, MaxFrameSize+1), &back); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

// TestDecodeHostileLengthPrefix: a tiny frame announcing a huge slice
// must be rejected before any allocation sized off the prefix.
func TestDecodeHostileLengthPrefix(t *testing.T) {
	m := Message{Type: MsgLookupReply}
	enc := AppendEncode(nil, &m)
	// The Regs count sits after Type/Version/From/ID/ReplyTo/Error/Reg/
	// Kind/Name; rather than compute the offset, splice a huge count in
	// by re-encoding with a prefix that lies. Simpler: decode a frame
	// that is all 0xFF varint bytes — the first length it parses is
	// astronomical and the remaining-bytes check must catch it.
	hostile := make([]byte, 16)
	for i := range hostile {
		hostile[i] = 0xff
	}
	var back Message
	if err := Decode(hostile, &back); err == nil {
		t.Fatal("hostile frame decoded without error")
	}
	_ = enc
}

func TestEncodedSizeMatchesForEmptyAndHuge(t *testing.T) {
	big := Message{Type: MsgBatchFetchReply, Version: V3, From: "memory.h3-0-1"}
	for i := 0; i < 200; i++ {
		s := make([]Sample, 50)
		for k := range s {
			s[k] = Sample{At: time.Duration(k) * time.Second, Value: float64(k) * 1.5}
		}
		big.Results = append(big.Results, SeriesResult{Series: "cpu.host-xyz", Samples: s})
	}
	if got, want := len(AppendEncode(nil, &big)), EncodedSize(&big); got != want {
		t.Fatalf("EncodedSize %d != encoded length %d", want, got)
	}
}

func FuzzCodecRoundTrip(f *testing.F) {
	for _, m := range codecShapes() {
		f.Add(AppendEncode(nil, &m))
	}
	// A few malformed seeds so the corpus starts with rejection paths.
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(binary.AppendUvarint(nil, 1<<40))
	f.Add([]byte{byte(MsgStore), V3, 0xff, 0xff, 0x03}) // more samples than bytes
	// testdata/fuzz holds tokened shapes at token values 1 and
	// MaxUint64-1, and frames whose sample count is one above and one
	// below their runs.
	f.Fuzz(func(t *testing.T, data []byte) {
		var m1 Message
		if err := Decode(data, &m1); err != nil {
			return // malformed input must error, never panic
		}
		// Anything that decodes must re-encode and decode again, and the
		// re-encoding must be a byte-level fixed point (canonical form).
		// Bytes, not DeepEqual: floats round-trip bit-exactly (NaN
		// included) but NaN != NaN under reflection.
		enc := AppendEncode(nil, &m1)
		var m2 Message
		if err := Decode(enc, &m2); err != nil {
			t.Fatalf("re-decode of re-encoded message failed: %v", err)
		}
		if string(AppendEncode(nil, &m2)) != string(enc) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}
