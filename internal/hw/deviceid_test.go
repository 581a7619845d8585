package hw_test

import (
	"fmt"
	"testing"

	"micropnp/internal/driver"
	"micropnp/internal/hw"
)

// TestDeviceIDString holds DeviceID.String to fmt's "0x%08x" for the two
// reserved identifiers, a few bit patterns and every shipped peripheral.
func TestDeviceIDString(t *testing.T) {
	ids := []hw.DeviceID{hw.DeviceIDAllPeripherals, hw.DeviceIDAllClients, 1, 0x10, 0x0f0f0f0f, 0xf0000000}
	for _, set := range [][]driver.StandardDriver{driver.StandardDrivers, driver.ExtendedDrivers} {
		for _, sd := range set {
			ids = append(ids, sd.ID)
		}
	}
	for _, id := range ids {
		if got, want := id.String(), fmt.Sprintf("0x%08x", uint32(id)); got != want {
			t.Errorf("DeviceID(%d).String() = %q, want %q", uint32(id), got, want)
		}
	}
}
