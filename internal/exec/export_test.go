package exec

import (
	"context"

	"github.com/adamant-db/adamant/internal/device"
	"github.com/adamant-db/adamant/internal/hub"
)

// DeviceWrappers resolves id through one query's executor three times —
// twice as plugged, once after remapping it onto fb the way a failover
// does — and returns the wrapper each lookup handed out.
func DeviceWrappers(rt *hub.Runtime, id, fb device.ID) (first, second, failedOver device.Device, err error) {
	x := newExecutor(context.Background(), rt, nil, Options{})
	if _, first, err = x.device(id); err != nil {
		return nil, nil, nil, err
	}
	if _, second, err = x.device(id); err != nil {
		return nil, nil, nil, err
	}
	x.remap[id] = fb
	_, failedOver, err = x.device(id)
	return first, second, failedOver, err
}
