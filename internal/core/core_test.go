package core_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"dynvote/internal/core"
	"dynvote/internal/proc"
	"dynvote/internal/view"
	"dynvote/internal/ykd"
)

// fake is a minimal algorithm for exercising the Piggyback wrapper
// with a real codec (ykd's).
type fake struct {
	out       []core.Message
	delivered []core.Message
	views     []view.View
	primary   bool
}

func (f *fake) Name() string           { return "fake" }
func (f *fake) ViewChange(v view.View) { f.views = append(f.views, v) }
func (f *fake) Deliver(_ proc.ID, m core.Message) {
	f.delivered = append(f.delivered, m)
}
func (f *fake) Poll() []core.Message {
	out := f.out
	f.out = nil
	return out
}
func (f *fake) InPrimary() bool { return f.primary }

func attemptMsg(n int64) core.Message {
	return &ykd.AttemptMessage{ViewID: n, Session: view.Session{Number: n, Members: proc.NewSet(0, 1)}}
}

func TestPiggybackNothingToSend(t *testing.T) {
	pb := core.NewPiggyback(&fake{}, ykd.Codec{})
	data, send, err := pb.Outgoing()
	if err != nil {
		t.Fatal(err)
	}
	if send || data != nil {
		t.Errorf("Outgoing() with idle algorithm = (%v, %v), want nothing", data, send)
	}
}

// incoming unbundles data and returns the application payloads it
// delivered, in order.
func incoming(pb *core.Piggyback, from proc.ID, data []byte) ([][]byte, error) {
	var apps [][]byte
	err := pb.Incoming(from, data, func(app []byte) { apps = append(apps, app) })
	return apps, err
}

func TestPiggybackAppOnly(t *testing.T) {
	sender := core.NewPiggyback(&fake{}, ykd.Codec{})
	data, send, err := sender.Outgoing([]byte("payload"))
	if err != nil || !send {
		t.Fatalf("Outgoing = %v, %v", send, err)
	}

	recvAlg := &fake{}
	receiver := core.NewPiggyback(recvAlg, ykd.Codec{})
	apps, err := incoming(receiver, 1, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || !bytes.Equal(apps[0], []byte("payload")) {
		t.Errorf("app payloads = %q", apps)
	}
	if len(recvAlg.delivered) != 0 {
		t.Errorf("algorithm got %d messages, want 0", len(recvAlg.delivered))
	}
}

func TestPiggybackBundlesAlgorithmTraffic(t *testing.T) {
	sendAlg := &fake{out: []core.Message{attemptMsg(3), attemptMsg(4)}}
	sender := core.NewPiggyback(sendAlg, ykd.Codec{})
	data, send, err := sender.Outgoing([]byte("app"))
	if err != nil || !send {
		t.Fatalf("Outgoing = %v, %v", send, err)
	}

	recvAlg := &fake{}
	receiver := core.NewPiggyback(recvAlg, ykd.Codec{})
	apps, err := incoming(receiver, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	// The application never sees the algorithm's extra information.
	if len(apps) != 1 || string(apps[0]) != "app" {
		t.Errorf("app payloads = %q", apps)
	}
	if len(recvAlg.delivered) != 2 {
		t.Fatalf("algorithm got %d messages, want 2", len(recvAlg.delivered))
	}
	am, ok := recvAlg.delivered[0].(*ykd.AttemptMessage)
	if !ok || am.ViewID != 3 {
		t.Errorf("first delivered = %#v", recvAlg.delivered[0])
	}
}

func TestPiggybackAlgOnlyNoApp(t *testing.T) {
	sendAlg := &fake{out: []core.Message{attemptMsg(1)}}
	sender := core.NewPiggyback(sendAlg, ykd.Codec{})
	data, send, err := sender.Outgoing()
	if err != nil || !send {
		t.Fatalf("Outgoing = %v, %v", send, err)
	}
	recvAlg := &fake{}
	receiver := core.NewPiggyback(recvAlg, ykd.Codec{})
	apps, err := incoming(receiver, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if apps != nil {
		t.Errorf("apps = %q, want none", apps)
	}
	if len(recvAlg.delivered) != 1 {
		t.Errorf("algorithm got %d messages, want 1", len(recvAlg.delivered))
	}
}

func TestPiggybackEmptyAppPayloadDistinctFromNone(t *testing.T) {
	sender := core.NewPiggyback(&fake{}, ykd.Codec{})
	data, send, err := sender.Outgoing([]byte{})
	if err != nil || !send {
		t.Fatalf("Outgoing = %v, %v", send, err)
	}
	receiver := core.NewPiggyback(&fake{}, ykd.Codec{})
	apps, err := incoming(receiver, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0] == nil || len(apps[0]) != 0 {
		t.Errorf("empty payload round-trips as %v, want one empty non-nil", apps)
	}
}

func TestPiggybackCorruptInput(t *testing.T) {
	receiver := core.NewPiggyback(&fake{}, ykd.Codec{})
	for i, data := range [][]byte{nil, {0xFF}, {3, 1, 0}, {1, 1, 99}} {
		if _, err := incoming(receiver, 0, data); err == nil && data != nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

// TestPiggybackBatchRoundTrip sends 0, 1 and 3 payloads, one of them
// empty, with and without algorithm traffic, and checks that the
// receiver gets the same payloads in the same order and the algorithm
// gets its messages.
func TestPiggybackBatchRoundTrip(t *testing.T) {
	batches := [][][]byte{
		nil,
		{[]byte("only")},
		{[]byte("first"), {}, []byte("third")},
	}
	for _, withAlg := range []bool{false, true} {
		for _, batch := range batches {
			t.Run(fmt.Sprintf("alg=%v/payloads=%d", withAlg, len(batch)), func(t *testing.T) {
				sendAlg := &fake{}
				if withAlg {
					sendAlg.out = []core.Message{attemptMsg(5), attemptMsg(6)}
				}
				data, send, err := core.NewPiggyback(sendAlg, ykd.Codec{}).Outgoing(batch...)
				if err != nil {
					t.Fatal(err)
				}
				if !send {
					if withAlg || len(batch) > 0 {
						t.Fatal("Outgoing had something to send but reported nothing")
					}
					return
				}
				recvAlg := &fake{}
				apps, err := incoming(core.NewPiggyback(recvAlg, ykd.Codec{}), 1, data)
				if err != nil {
					t.Fatal(err)
				}
				if len(apps) != len(batch) {
					t.Fatalf("delivered %d payloads, want %d", len(apps), len(batch))
				}
				for i := range batch {
					if apps[i] == nil || !bytes.Equal(apps[i], batch[i]) {
						t.Errorf("payload %d = %q, want %q", i, apps[i], batch[i])
					}
				}
				wantMsgs := 0
				if withAlg {
					wantMsgs = 2
				}
				if len(recvAlg.delivered) != wantMsgs {
					t.Errorf("algorithm got %d messages, want %d", len(recvAlg.delivered), wantMsgs)
				}
			})
		}
	}
}

// TestPiggybackWireFormatPinned holds bundles with no and one payload
// to the bytes the single-payload encoding (a Bool(hasApp) flag, then
// the payload) produced: Uvarint(0) and Uvarint(1) are the bytes 0x00
// and 0x01, so only bundles of two or more payloads are new on the wire.
func TestPiggybackWireFormatPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		out  []core.Message
		apps [][]byte
		want string
	}{
		{"one payload", []core.Message{attemptMsg(3)}, [][]byte{[]byte("app")},
			"010c0206060103000000000000000103617070"},
		{"algorithm only", []core.Message{attemptMsg(3), attemptMsg(4)}, nil,
			"020c0206060103000000000000000c02080801030000000000000000"},
	} {
		data, _, err := core.NewPiggyback(&fake{out: tc.out}, ykd.Codec{}).Outgoing(tc.apps...)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(data); got != tc.want {
			t.Errorf("%s: bundle = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestPiggybackTruncatedBatchDeliversNothing cuts a three-payload
// bundle at every prefix length: each prefix must fail, and none may
// hand the application a payload.
func TestPiggybackTruncatedBatchDeliversNothing(t *testing.T) {
	sender := core.NewPiggyback(&fake{out: []core.Message{attemptMsg(9)}}, ykd.Codec{})
	data, _, err := sender.Outgoing([]byte("alpha"), []byte("beta"), []byte{})
	if err != nil {
		t.Fatal(err)
	}
	full := append([]byte(nil), data...)
	for cut := 0; cut < len(full); cut++ {
		apps, err := incoming(core.NewPiggyback(&fake{}, ykd.Codec{}), 0, full[:cut])
		if err == nil {
			t.Errorf("prefix of %d/%d bytes accepted", cut, len(full))
		}
		if len(apps) != 0 {
			t.Errorf("prefix of %d/%d bytes delivered %d payloads", cut, len(full), len(apps))
		}
	}
}

func TestPiggybackViewChangedForwards(t *testing.T) {
	alg := &fake{}
	pb := core.NewPiggyback(alg, ykd.Codec{})
	v := view.View{ID: 4, Members: proc.NewSet(0, 1)}
	pb.ViewChanged(v)
	if len(alg.views) != 1 || alg.views[0].ID != 4 {
		t.Errorf("views = %v", alg.views)
	}
	alg.primary = true
	if !pb.InPrimary() {
		t.Error("InPrimary not forwarded")
	}
	if pb.Algorithm() != core.Algorithm(alg) {
		t.Error("Algorithm accessor wrong")
	}
}
