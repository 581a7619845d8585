package main

import (
	"fmt"
	"sort"
	"time"

	"micropnp"
	"micropnp/internal/bytecode"
	"micropnp/internal/catalog"
	"micropnp/internal/hw"
	"micropnp/internal/proto"
	"micropnp/internal/vm"
)

// The traced run times layers the SDK calls into indirectly by replaying
// the work they did: the codec on the message shapes the workload sent,
// the installed drivers' handlers, a control-board identification scan and
// the catalog listing. Each replay reports the median of replayBatches
// batches.
const replayBatches = 5

// timeBatch returns the median per-call time of fn over batches of n calls.
func timeBatch(n int, fn func()) time.Duration {
	per := make([]float64, replayBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(per))
}

func replayAll(w *world, o *outcome) (map[string]metric, error) {
	m := map[string]metric{}
	enc, dec, err := replayProto(w, o)
	if err != nil {
		return nil, err
	}
	m["proto.encode_ns"] = metric{float64(enc), "ns"}
	m["proto.decode_ns"] = metric{float64(dec), "ns"}
	execs, compile, err := replayVM(w)
	if err != nil {
		return nil, err
	}
	for name, d := range execs {
		m["vm.exec_ns."+name] = metric{float64(d), "ns"}
	}
	m["vm.compile_ns"] = metric{float64(compile), "ns"}
	id, err := replayIdentify()
	if err != nil {
		return nil, err
	}
	m["hw.identify_ns"] = metric{float64(id), "ns"}
	m["catalog.list_us"] = metric{us(replayList(w.cat)), "us"}
	return m, nil
}

// replayProto encodes and decodes the request and reply of every operation
// kind the pass ran, weighted by how often it ran, and returns the mean
// time per message.
func replayProto(w *world, o *outcome) (enc, dec time.Duration, err error) {
	type shape struct {
		msgs   []*proto.Message
		weight int
	}
	sample := map[micropnp.DeviceID][]int32{
		micropnp.TMP36: {238}, micropnp.HIH4030: {473}, micropnp.BMP180: {213, 99876}, micropnp.ADXL345: {97, -249, 978},
	}
	advert := &proto.Message{Type: proto.MsgUnsolicitedAdvert, Seq: 7, Peripherals: []proto.PeripheralInfo{{
		ID: hw.DeviceID(micropnp.TMP36),
		TLVs: []proto.TLV{
			{Type: proto.TLVName, Value: []byte("z3n1042")},
			{Type: proto.TLVChannel, Value: []byte{0}},
			{Type: proto.TLVUnits, Value: []byte("0.1°C")},
		},
	}}}
	var shapes []shape
	for _, dev := range sensorKinds {
		id := hw.DeviceID(dev)
		shapes = append(shapes, shape{weight: o.readsByDevice[dev], msgs: []*proto.Message{
			{Type: proto.MsgRead, Seq: 42, DeviceID: id},
			{Type: proto.MsgData, Seq: 42, DeviceID: id, Data: proto.Values32(sample[dev])},
		}})
	}
	relay := hw.DeviceID(micropnp.Relay)
	shapes = append(shapes,
		shape{weight: o.kinds[opWrite], msgs: []*proto.Message{
			{Type: proto.MsgWrite, Seq: 43, DeviceID: relay, Data: proto.Values32([]int32{165})},
			{Type: proto.MsgWriteAck, Seq: 43, DeviceID: relay},
		}},
		shape{weight: o.kinds[opDiscover], msgs: []*proto.Message{
			{Type: proto.MsgDiscovery, Seq: 44},
			{Type: proto.MsgSolicitedAdvert, Seq: 44, Peripherals: advert.Peripherals},
		}},
		shape{weight: o.kinds[opSubscribe], msgs: []*proto.Message{
			{Type: proto.MsgStream, Seq: 45, DeviceID: hw.DeviceID(micropnp.TMP36)},
			{Type: proto.MsgEstablished, Seq: 45, DeviceID: hw.DeviceID(micropnp.TMP36)},
		}},
	)
	if o.kinds[opHotSwap] > 0 {
		code := installedDriver(w, micropnp.BMP180)
		shapes = append(shapes, shape{weight: o.kinds[opHotSwap], msgs: []*proto.Message{
			{Type: proto.MsgDriverInstallReq, Seq: 46, DeviceID: hw.DeviceID(micropnp.BMP180)},
			{Type: proto.MsgDriverUpload, Seq: 46, DeviceID: hw.DeviceID(micropnp.BMP180), Driver: code},
			advert,
		}})
	}
	var (
		buf                []byte
		d                  proto.Decoder
		encSum, decSum, wt float64
	)
	for _, s := range shapes {
		if s.weight == 0 {
			continue
		}
		for _, m := range s.msgs {
			if buf, err = m.AppendEncode(buf[:0]); err != nil {
				return 0, 0, fmt.Errorf("replay encode %v: %w", m.Type, err)
			}
			if _, err = d.Decode(buf); err != nil {
				return 0, 0, fmt.Errorf("replay decode %v: %w", m.Type, err)
			}
			e := timeBatch(20000, func() { buf, _ = m.AppendEncode(buf[:0]) })
			de := timeBatch(20000, func() { _, _ = d.Decode(buf) })
			encSum += float64(e) * float64(s.weight)
			decSum += float64(de) * float64(s.weight)
			wt += float64(s.weight)
		}
	}
	if wt == 0 {
		return 0, 0, nil
	}
	return time.Duration(encSum / wt), time.Duration(decSum / wt), nil
}

// installedDriver returns the driver artefact a Thing of the world has
// installed for dev, or nil.
func installedDriver(w *world, dev micropnp.DeviceID) []byte {
	for _, t := range w.things {
		if code := t.th.InstalledDriverBytes(dev); code != nil {
			return code
		}
	}
	return nil
}

type vmCall struct {
	name string
	args []int32
}

// driverCycles is each driver's handler sequence for one reading (one
// write for the relay bank), as a Thing runs it.
var driverCycles = map[string]struct {
	dev   micropnp.DeviceID
	calls []vmCall
}{
	"tmp36":   {micropnp.TMP36, []vmCall{{"read", nil}, {"sample", []int32{512}}}},
	"hih4030": {micropnp.HIH4030, []vmCall{{"read", nil}, {"sample", []int32{700}}}},
	"bmp180": {micropnp.BMP180, []vmCall{
		{"read", nil}, {"i2cack", nil}, {"timerFired", nil}, {"i2cdata", []int32{27898, 0}},
		{"i2cack", nil}, {"timerFired", nil}, {"i2cdata", []int32{23843 << 7, 0}}, {"compute", nil},
	}},
	"adxl345": {micropnp.ADXL345, []vmCall{
		{"read", nil}, {"spidata", []int32{120, 0}}, {"spidata", []int32{-40, 1}}, {"spidata", []int32{250, 2}},
	}},
	"relay": {micropnp.Relay, []vmCall{{"write", []int32{1}}, {"read", nil}, {"i2cdata", []int32{1, 0}}}},
}

// bmp180Calibration is the 11-word calibration block the BMP180 driver
// reads at install time.
var bmp180Calibration = []int32{408, -72, -14383, 32741, 32757, 23153, 6190, 4, -32768, -8711, 2868}

// replayVM loads each installed driver into a fresh machine (the
// install-time compile) and runs its handler cycle.
func replayVM(w *world) (map[string]time.Duration, time.Duration, error) {
	execs := map[string]time.Duration{}
	names := make([]string, 0, len(driverCycles))
	for name := range driverCycles {
		names = append(names, name)
	}
	sort.Strings(names)
	var compile time.Duration
	for _, name := range names {
		cyc := driverCycles[name]
		code := installedDriver(w, cyc.dev)
		if code == nil {
			return nil, 0, fmt.Errorf("replay: no Thing has the %s driver installed", name)
		}
		prog, err := bytecode.Decode(code)
		if err != nil {
			return nil, 0, fmt.Errorf("replay: decoding the %s driver: %w", name, err)
		}
		var m *vm.Machine
		compile += timeBatch(200, func() { m, err = vm.NewMachine(prog) })
		if err != nil {
			return nil, 0, fmt.Errorf("replay: loading the %s driver: %w", name, err)
		}
		prologue := []vmCall{{"init", nil}}
		if name == "bmp180" {
			for i, word := range bmp180Calibration {
				prologue = append(prologue, vmCall{"i2cdata", []int32{word, int32(i)}})
			}
		}
		for _, c := range append(prologue, cyc.calls...) {
			if _, err := m.Run(c.name, c.args); err != nil {
				return nil, 0, fmt.Errorf("replay: %s.%s: %w", name, c.name, err)
			}
		}
		execs[name] = timeBatch(5000, func() {
			for _, c := range cyc.calls {
				_, _ = m.Run(c.name, c.args)
			}
		})
	}
	return execs, compile / time.Duration(len(names)), nil
}

// replayIdentify scans a three-channel board holding a TMP36, a relay bank
// and a BMP180.
func replayIdentify() (time.Duration, error) {
	b := hw.NewControlBoard(hw.BoardConfig{})
	for ch, p := range []hw.PeripheralSpec{
		{ID: hw.DeviceID(micropnp.TMP36), Bus: hw.BusADC},
		{ID: hw.DeviceID(micropnp.Relay), Bus: hw.BusI2C},
		{ID: hw.DeviceID(micropnp.BMP180), Bus: hw.BusI2C},
	} {
		per, err := hw.NewPeripheral(p)
		if err != nil {
			return 0, err
		}
		if err := b.Plug(ch, per); err != nil {
			return 0, err
		}
	}
	res := b.Identify()
	for _, r := range res.Readings {
		if r.Err != nil {
			return 0, fmt.Errorf("replay: identification of channel %d: %w", r.Channel, r.Err)
		}
	}
	return timeBatch(20000, func() { b.Identify() }), nil
}

// replayList pages through the catalog the way http-rw's listings do.
func replayList(cat *catalog.Catalog) time.Duration {
	size := cat.Size()
	off := 0
	return timeBatch(200, func() {
		cat.List(catalog.Filter{}, off, httpPageSize)
		if off += httpPageSize; off >= size {
			off = 0
		}
	})
}
