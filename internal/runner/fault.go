package runner

// FaultInjector forces failures into a fleet run for testing: the
// pipeline calls Inject at the entry of every stage boundary and fails
// that stage with whatever error comes back. An injector may also
// panic (exercising the runner's panic isolation) or sleep (simulating
// a slow car under cancellation). Production runs leave it nil.
type FaultInjector interface {
	// Inject is called before stage work runs for car; a non-nil return
	// fails the stage with that error. Wrap the return in Transient to
	// make the runner retry the car.
	Inject(car int, stage string) error
}

// FaultFunc adapts a plain function to FaultInjector.
type FaultFunc func(car int, stage string) error

// Inject implements FaultInjector.
func (f FaultFunc) Inject(car int, stage string) error { return f(car, stage) }

// Inject is the nil-safe call-site helper: instrumented stages call it
// unconditionally and pay nothing when no injector is configured.
func Inject(fi FaultInjector, car int, stage string) error {
	if fi == nil {
		return nil
	}
	return fi.Inject(car, stage)
}
