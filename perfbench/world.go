package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"time"

	"micropnp"
	"micropnp/internal/catalog"
)

// Sensor kinds the workloads plug, in the order topologies cycle through
// them. The relay bank is the one actuator.
var sensorKinds = []micropnp.DeviceID{micropnp.TMP36, micropnp.HIH4030, micropnp.BMP180, micropnp.ADXL345}

// Table 4 of the paper: generate multicast address, join multicast group,
// request driver, install driver, advertise peripheral (ms).
var table4Paper = [5]float64{2.59, 5.44, 53.91, 59.50, 45.37}

// thingRef is one workload target: a Thing, the sensor on channel 0, an
// optional second sensor on channel 2, and an optional relay bank on
// channel 1.
type thingRef struct {
	th     *micropnp.Thing
	addr   netip.Addr
	zone   uint16
	sensor micropnp.DeviceID
	extra  micropnp.DeviceID // 0 when channel 2 is empty
	relay  *micropnp.RelayBank
}

// world is one built deployment with everything a workload drives.
type world struct {
	d        *micropnp.Deployment
	cl       *micropnp.Client
	cat      *catalog.Catalog
	things   []*thingRef
	relays   []*thingRef
	env      env
	tr       *tracer
	http     *httpFront // http-rw only
	plugged  int        // peripherals plugged, reference Things excluded
	lossless bool       // the network drops no frames
	val      [1]int32   // write payload scratch
}

// close stops the gateway, if any, and releases the deployment.
func (w *world) close() {
	if w == nil {
		return
	}
	if w.http != nil {
		w.http.close()
		w.http = nil
	}
	w.d.Close()
}

// setupPrint renders the deployment's state after set-up; set-ups of one
// seed must render identically.
func (w *world) setupPrint() string {
	return fmt.Sprintf("now=%v net=%+v plugins=%+v uploads=%d adverts=%d",
		w.d.Now(), w.d.NetworkStats(), w.plugins(), w.d.ManagerUploads(), len(w.cl.Adverts()))
}

// env is the physical input every sensor reading must decode back to.
type env struct {
	tempC, humidity, pressurePa float64
	ax, ay, az                  float64
}

func randomEnv(rng *rand.Rand) env {
	return env{
		tempC:      15 + 15*rng.Float64(),
		humidity:   30 + 40*rng.Float64(),
		pressurePa: 95000 + 10000*rng.Float64(),
		ax:         3*rng.Float64() - 1.5,
		ay:         3*rng.Float64() - 1.5,
		az:         3*rng.Float64() - 1.5,
	}
}

func (w *world) setEnv(e env) {
	w.env = e
	w.d.SetEnvironment(e.tempC, e.humidity, e.pressurePa)
	w.d.SetAcceleration(e.ax, e.ay, e.az)
}

// checkReading reports whether a reading's values decode to the physical
// inputs within the sensor's quantisation: TMP36 and BMP180 temperatures in
// 0.1 °C, HIH-4030 humidity in 0.1 %RH, BMP180 pressure in Pa, ADXL345
// acceleration in mg.
func (e env) checkReading(dev micropnp.DeviceID, v []int32) bool {
	near := func(got int32, want, scale, tol float64) bool {
		return math.Abs(float64(got)/scale-want) <= tol
	}
	switch dev {
	case micropnp.TMP36:
		return len(v) == 1 && near(v[0], e.tempC, 10, 1.0)
	case micropnp.HIH4030:
		return len(v) == 1 && near(v[0], e.humidity, 10, 2.0)
	case micropnp.BMP180:
		return len(v) == 2 && near(v[0], e.tempC, 10, 1.0) && near(v[1], e.pressurePa, 1, 100)
	case micropnp.ADXL345:
		return len(v) == 3 && near(v[0], e.ax, 1000, 0.02) && near(v[1], e.ay, 1000, 0.02) && near(v[2], e.az, 1000, 0.02)
	}
	return false
}

func plugSensor(th *micropnp.Thing, ch int, dev micropnp.DeviceID) error {
	switch dev {
	case micropnp.TMP36:
		return th.PlugTMP36(ch)
	case micropnp.HIH4030:
		return th.PlugHIH4030(ch)
	case micropnp.BMP180:
		return th.PlugBMP180(ch)
	case micropnp.ADXL345:
		return th.PlugADXL345(ch)
	}
	return fmt.Errorf("no plug helper for %v", dev)
}

// populate plugs Thing i's peripherals: a sensor on channel 0 cycling
// through sensorKinds, a relay bank on every fourth Thing, and a second
// sensor on every third Thing.
func (w *world) populate(i int, th *micropnp.Thing, zone uint16) error {
	ref := &thingRef{th: th, addr: th.Addr(), zone: zone, sensor: sensorKinds[i%len(sensorKinds)]}
	if err := plugSensor(th, 0, ref.sensor); err != nil {
		return err
	}
	w.plugged++
	if i%4 == 3 {
		rb, err := th.PlugRelay(1)
		if err != nil {
			return err
		}
		ref.relay = rb
		w.relays = append(w.relays, ref)
		w.plugged++
	}
	if i%3 == 2 {
		ref.extra = sensorKinds[(i/3)%len(sensorKinds)]
		if ref.extra == ref.sensor {
			ref.extra = sensorKinds[(i/3+1)%len(sensorKinds)]
		}
		if err := plugSensor(th, 2, ref.extra); err != nil {
			return err
		}
		w.plugged++
	}
	w.things = append(w.things, ref)
	return nil
}

// observeAdverts feeds the client's adverts into a catalog through a
// benchmark-owned hook, so the traced run can time catalog.Observe.
func (w *world) observeAdverts() error {
	cat, err := catalog.New(catalog.Config{Now: w.d.Now})
	if err != nil {
		return err
	}
	w.cat = cat
	w.cl.AddAdvertHook(func(a micropnp.Advert) {
		sp := w.tr.begin(spanCatalogObserve, 0, nil)
		cat.Observe(a)
		w.tr.end(sp)
	})
	return nil
}

// drain runs the deployment until idle, as a traced netsim drive.
func (w *world) drain() {
	sp := w.tr.begin(spanNetsimDrive, 0, nil)
	w.d.Run()
	w.tr.end(sp)
}

// buildTree builds n Things in a four-way tree under the border router:
// Things 0-3 sit one hop from it and Thing i >= 4 hangs below Thing i/4-1,
// so paths run one to six hops.
func (w *world) buildTree(n int) error {
	ths := make([]*micropnp.Thing, n)
	for i := range ths {
		var err error
		if i < 4 {
			ths[i], err = w.d.AddThing(fmt.Sprintf("t%d", i))
		} else {
			ths[i], err = w.d.AddThing(fmt.Sprintf("t%d", i), micropnp.Under(ths[i/4-1]))
		}
		if err != nil {
			return err
		}
		if err := w.populate(i, ths[i], 0); err != nil {
			return err
		}
	}
	return nil
}

// buildZones builds n Things spread round-robin over the address zones,
// each zone a four-way tree whose first Thing sits one hop from the border
// router, so paths run one to six hops.
func (w *world) buildZones(n, zones int) error {
	members := make([][]*micropnp.Thing, zones+1)
	for i := 0; i < n; i++ {
		zone := uint16(1 + i%zones)
		k := len(members[zone])
		opts := []micropnp.ThingOption{micropnp.InZone(zone)}
		if k > 0 {
			opts = append(opts, micropnp.Under(members[zone][(k-1)/4]))
		}
		th, err := w.d.AddThing(fmt.Sprintf("z%dn%d", zone, i), opts...)
		if err != nil {
			return err
		}
		members[zone] = append(members[zone], th)
		if err := w.populate(i, th, zone); err != nil {
			return err
		}
	}
	return nil
}

// checkSetup verifies every plug-in completed and, on a loss-free network,
// that the catalog saw every unsolicited advert.
func (w *world) checkSetup() error {
	done := 0
	for _, t := range w.things {
		for _, tr := range t.th.Traces() {
			if tr.Done {
				done++
			}
		}
	}
	if done != w.plugged {
		return fmt.Errorf("%d of %d plug-ins completed", done, w.plugged)
	}
	if w.lossless && w.cat.Size() != w.plugged {
		return fmt.Errorf("catalog holds %d of %d peripherals", w.cat.Size(), w.plugged)
	}
	return nil
}

// referenceTable4 plugs a TMP36 into each of n fresh Things one hop from
// the border router of a loss-free reference deployment, one at a time on
// the otherwise idle network — the conditions of the paper's Table 4 — and
// returns the mean absolute per-phase error against the paper, in percent.
// Every workload uses the same reference, so neither contention in its own
// set-up nor its loss rate reaches the figure.
func referenceTable4(seed int64, n int, tr *tracer) (float64, error) {
	d, err := micropnp.NewDeployment(micropnp.WithSeed(seed), micropnp.WithProcJitter(0.04))
	if err != nil {
		return 0, err
	}
	var sum [5]float64
	for i := 0; i < n; i++ {
		th, err := d.AddThing(fmt.Sprintf("ref%d", i))
		if err != nil {
			return 0, err
		}
		if err := th.PlugTMP36(i % 3); err != nil {
			return 0, err
		}
		sp := tr.begin(spanNetsimDrive, 0, nil)
		d.Run()
		tr.end(sp)
		trs := th.Traces()
		if len(trs) != 1 || !trs[0].Done {
			return 0, fmt.Errorf("reference plug-in %d did not complete", i)
		}
		t := trs[0]
		for k, d := range [5]time.Duration{t.GenerateAddr, t.JoinGroup, t.RequestDriver, t.InstallDriver, t.Advertise} {
			sum[k] += ms(d)
		}
	}
	var errPct float64
	for k, paper := range table4Paper {
		errPct += math.Abs(sum[k]/float64(n)-paper) / paper * 100
	}
	return errPct / float64(len(table4Paper)), nil
}

// pluginStats summarises every plug-in trace of the workload's Things: the
// count, the mean total and the mean of each phase, in virtual ms.
type pluginStats struct {
	n                                            int
	total, identify, request, install, advertise float64
}

func (w *world) plugins() pluginStats {
	var s pluginStats
	for _, t := range w.things {
		for _, tr := range t.th.Traces() {
			if !tr.Done {
				continue
			}
			s.n++
			s.total += ms(tr.Total)
			s.identify += ms(tr.Identification)
			s.request += ms(tr.RequestDriver)
			s.install += ms(tr.InstallDriver)
			s.advertise += ms(tr.Advertise)
		}
	}
	if s.n > 0 {
		f := float64(s.n)
		s.total, s.identify, s.request, s.install, s.advertise = s.total/f, s.identify/f, s.request/f, s.install/f, s.advertise/f
	}
	return s
}

// boardStats sums the control-board counters of the workload's Things.
func (w *world) boardStats() (scans, interrupts int) {
	for _, t := range w.things {
		b := t.th.BoardStats()
		scans += b.Scans
		interrupts += b.Interrupts
	}
	return scans, interrupts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
