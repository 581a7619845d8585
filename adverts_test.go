package micropnp_test

import (
	"context"
	"net/netip"
	"testing"

	"micropnp"
	"micropnp/internal/hw"
	"micropnp/internal/netsim"
	"micropnp/internal/proto"
)

// TestReadingUnitsFromThingsOwnAdvert reads one peripheral type from two
// Things that advertised it in different units: each Reading carries the
// units its own Thing advertised, not those of whichever advert of the type
// arrived last.
func TestReadingUnitsFromThingsOwnAdvert(t *testing.T) {
	d := newSDKDeployment(t)
	th, err := d.AddThing("lab")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	d.Run()

	// A scripted peer serving a TMP36 in tenths of a kelvin advertises after
	// the real Thing and answers every read with 297.0 K.
	peer := mustAddr("2001:db8::beef")
	node, err := d.AddPeerNode(peer)
	if err != nil {
		t.Fatal(err)
	}
	send := func(dst netip.Addr, m *proto.Message) {
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		node.Send(dst, b)
	}
	node.Bind(func(msg netsim.Message) {
		if m, err := proto.Decode(msg.Payload); err == nil && m.Type == proto.MsgRead {
			send(msg.Src, &proto.Message{Type: proto.MsgData, Seq: m.Seq, DeviceID: m.DeviceID,
				Data: proto.Values32([]int32{2970})})
		}
	})
	send(netsim.AllClientsAddr(netsim.PrefixFromAddr(peer)), &proto.Message{
		Type: proto.MsgUnsolicitedAdvert, Seq: 1,
		Peripherals: []proto.PeripheralInfo{{ID: hw.DeviceID(micropnp.TMP36),
			TLVs: []proto.TLV{{Type: proto.TLVUnits, Value: []byte("0.1K")}}}},
	})
	d.Run()

	for _, want := range []struct {
		thing netip.Addr
		units string
	}{{th.Addr(), "0.1°C"}, {peer, "0.1K"}} {
		r, err := cl.Read(context.Background(), want.thing, micropnp.TMP36)
		if err != nil {
			t.Fatal(err)
		}
		if r.Units != want.units {
			t.Errorf("%v: units = %q, want %q from its own advert", want.thing, r.Units, want.units)
		}
	}
}

// TestDiscoverResultsAreTheCallersOwn runs two discoveries that gather the
// same adverts at different times: the second must not write into the
// slice the first returned, and each result carries the Thing's metadata.
func TestDiscoverResultsAreTheCallersOwn(t *testing.T) {
	d := newSDKDeployment(t)
	th, err := d.AddThing("lab")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := d.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if err := th.PlugTMP36(0); err != nil {
		t.Fatal(err)
	}
	if err := th.PlugHIH4030(2); err != nil {
		t.Fatal(err)
	}
	d.Run()
	first, err := cl.Discover(context.Background(), micropnp.AllPeripherals)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 2 || first[0].Name != "lab" || first[0].Units != "0.1°C" || first[1].Channel != 2 || !first[1].Solicited {
		t.Fatalf("first discovery = %+v", first)
	}
	kept := append([]micropnp.Advert(nil), first...)
	second, err := cl.Discover(context.Background(), micropnp.AllPeripherals)
	if err != nil {
		t.Fatal(err)
	}
	if len(second) != 2 || second[0].At == first[0].At {
		t.Fatalf("second discovery = %+v, want two adverts gathered later", second)
	}
	for i := range kept {
		if first[i] != kept[i] {
			t.Fatalf("the second discovery changed the first's result: %+v, was %+v", first[i], kept[i])
		}
	}
}
