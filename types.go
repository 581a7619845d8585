package micropnp

import (
	"errors"
	"net/netip"
	"time"

	"micropnp/internal/client"
	"micropnp/internal/driver"
	"micropnp/internal/hw"
)

// DeviceID is a 32-bit µPnP device-type identifier, electrically encoded in
// a peripheral's identification resistors (Section 3). Identifiers
// allocated under the structured namespace decompose into vendor, device
// class and product.
type DeviceID uint32

// String renders the identifier in the 0x%08x form used throughout the
// paper.
func (id DeviceID) String() string { return hw.DeviceID(id).String() }

// Class returns the device class of a structured identifier, or 0 when the
// identifier is unstructured.
func (id DeviceID) Class() uint8 { return hw.DeviceID(id).Structured().Class }

// AllPeripherals addresses every peripheral type at once (discovery
// wildcard).
const AllPeripherals DeviceID = DeviceID(hw.DeviceIDAllPeripherals)

// Standard peripheral identifiers of the evaluation (Table 3) plus the two
// extension peripherals.
var (
	// TMP36 is the Analog Devices TMP36 temperature sensor (ADC).
	TMP36 = DeviceID(driver.IDTMP36)
	// HIH4030 is the Honeywell HIH-4030 humidity sensor (ADC).
	HIH4030 = DeviceID(driver.IDHIH4030)
	// BMP180 is the Bosch BMP180 pressure sensor (I²C).
	BMP180 = DeviceID(driver.IDBMP180)
	// ID20LA is the ID Innovations ID-20LA RFID card reader (UART).
	ID20LA = DeviceID(driver.IDID20LA)
	// ADXL345 is the Analog Devices ADXL345 accelerometer (SPI).
	ADXL345 = DeviceID(driver.IDADXL345)
	// Relay is the PCF8574 eight-relay bank (I²C).
	Relay = DeviceID(driver.IDRelay)
)

// Device classes of the structured namespace (Section 9 extension), for
// class-based discovery.
const (
	ClassTemperature   = hw.ClassTemperature
	ClassAccelerometer = hw.ClassAccelerometer
	ClassActuatorRelay = hw.ClassActuatorRelay
)

// Request errors. ErrTimeout matches errors.Is(err, context.DeadlineExceeded),
// so virtual-clock expiry can be handled exactly like a context deadline.
var (
	// ErrTimeout reports that a request's deadline passed without a reply:
	// the datagram or its answer was lost, or the Thing is unreachable.
	ErrTimeout = client.ErrTimeout
	// ErrNoPeripheral reports that the addressed Thing answered but serves
	// no such peripheral.
	ErrNoPeripheral = client.ErrNoPeripheral
	// ErrWriteRejected reports a negatively acknowledged write.
	ErrWriteRejected = client.ErrWriteRejected
	// ErrRemovalRejected reports a negatively acknowledged driver removal.
	ErrRemovalRejected = client.ErrRemovalRejected
	// ErrClosed reports that the deployment was closed while the request
	// was in flight (real-time mode): the clock died with the request's
	// expiry event, so it could never complete or time out.
	ErrClosed = errors.New("micropnp: deployment closed")
	// ErrNoDeployment reports a Fleet request whose Thing address matches no
	// member deployment's network prefix — the wrapped error carries the
	// address.
	ErrNoDeployment = errors.New("micropnp: no deployment for address")
)

// Reading is one value set produced by a peripheral, with the metadata a
// raw []int32 reply lacks.
type Reading struct {
	// Thing is the address of the Thing that produced the reading.
	Thing netip.Addr
	// Device is the peripheral type read.
	Device DeviceID
	// Values are the driver's return values (e.g. [tenths °C] for the
	// TMP36, [tenths °C, Pa] for the BMP180, 12 ASCII codes for a card).
	Values []int32
	// Units describes the values, as advertised by the Thing ("0.1°C",
	// "0.1°C,Pa", "mg", ...). Empty when the peripheral advertised none.
	Units string
	// At is the virtual time the reading arrived at the client.
	At time.Duration
}

// Advert is one peripheral sighting: a Thing advertising a connected
// peripheral, either unsolicited (after plug-in) or in reply to a
// discovery.
type Advert struct {
	// Thing is the advertising Thing's address.
	Thing netip.Addr
	// Device is the advertised peripheral type.
	Device DeviceID
	// Name is the Thing's human-readable name, when advertised.
	Name string
	// Units describes the peripheral's values, when advertised.
	Units string
	// Channel is the control-board channel serving the peripheral
	// (-1 when not advertised).
	Channel int
	// Solicited distinguishes discovery replies from unsolicited
	// advertisements.
	Solicited bool
	// At is the virtual time the advertisement arrived.
	At time.Duration
}

// advertFrom converts an internal advertisement.
func advertFrom(a client.Advert) Advert {
	return Advert{
		Thing:     a.Thing,
		Device:    DeviceID(a.Device),
		Name:      a.Name,
		Units:     a.Units,
		Channel:   int(a.Channel),
		Solicited: a.Solicited,
		At:        a.At,
	}
}

// advertsFrom converts internal advertisements into a fresh slice the
// caller owns.
func advertsFrom(in []client.Advert) []Advert {
	out := make([]Advert, len(in))
	for i, a := range in {
		out[i] = advertFrom(a)
	}
	return out
}
