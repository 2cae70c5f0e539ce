// Package rapl simulates Intel's Running Average Power Limit interface as
// exposed on the Theta Cray XC40 nodes the paper evaluates on (via the
// msr-safe kernel module). One Domain models the package power domain of
// a single node.
//
// The simulation reproduces the RAPL properties the paper depends on:
//
//   - a long-term power cap. Real RAPL enforces it as a moving average
//     over a 1 s window, but every phase the machine model executes
//     runs far longer than that window, so the cap binds at its
//     sustained level: Grant clips demand to the cap directly. The
//     domain keeps the 1 s window only to report enforcement
//     violations to an attached telemetry hub;
//   - an optional short-term cap with a ~9.766 ms window that bounds
//     draw and, when combined with the long cap, causes RAPL to
//     regulate slightly below the requested limit;
//   - an actuation latency (~10 ms on Theta) between writing a new cap
//     and the cap taking effect;
//   - hardware bounds: caps are clamped to [MinCap, TDP] (98 W and 215 W
//     on Theta's KNL 7230);
//   - a monotonically increasing energy counter, from which PoLiMER
//     measures each interval's average power.
//
// Time is virtual: callers advance the domain explicitly with the power
// actually drawn, exactly as the machine model integrates phase execution.
package rapl

import (
	"fmt"

	"seesaw/internal/telemetry"
	"seesaw/internal/units"
)

// Config describes the hardware characteristics of a RAPL domain.
type Config struct {
	// MinCap is the lowest supported power cap (98 W on Theta).
	MinCap units.Watts
	// TDP is the thermal design power and highest cap (215 W on Theta).
	TDP units.Watts
	// LongWindow is the averaging window of the long-term cap (1 s).
	LongWindow units.Seconds
	// ShortWindow is the averaging window of the short-term cap
	// (9.766 ms on Theta).
	ShortWindow units.Seconds
	// ActuationLatency is the delay between a cap write and the cap
	// taking effect (~10 ms on Theta).
	ActuationLatency units.Seconds
	// DualCapMargin is the fraction below the requested limit at which
	// RAPL regulates when both long- and short-term caps are set; the
	// paper observes that "RAPL limits the power slightly below the
	// requested power" in that configuration.
	DualCapMargin float64
}

// Theta returns the RAPL configuration of a Theta KNL 7230 node.
func Theta() Config {
	return Config{
		MinCap:           98,
		TDP:              215,
		LongWindow:       1.0,
		ShortWindow:      0.009766,
		ActuationLatency: 0.010,
		DualCapMargin:    0.02,
	}
}

// Scale returns the configuration with its power bounds multiplied by
// f, describing a RAPL sub-domain covering a fraction of a physical
// node (a time-shared placement splits one node into two half-node
// domains, f = 0.5). The averaging windows, actuation latency and
// dual-cap margin are properties of the controller, not of the domain
// size, and stay unchanged.
func (c Config) Scale(f float64) Config {
	if f == 1 {
		return c
	}
	c.MinCap = units.Watts(float64(c.MinCap) * f)
	c.TDP = units.Watts(float64(c.TDP) * f)
	return c
}

// pendingCap is a cap write waiting out the actuation latency.
type pendingCap struct {
	value    units.Watts
	applyAt  units.Seconds
	shortCap bool
}

// Domain simulates one RAPL package power domain.
type Domain struct {
	cfg Config

	now    units.Seconds
	energy units.Joules

	longCap  units.Watts // 0 means uncapped
	shortCap units.Watts // 0 means unset

	pending []pendingCap

	// moving-average window of the long-term cap, folded only while a
	// telemetry site is attached (its one reader is the violation
	// report).
	window    []sample
	windowJ   units.Joules
	windowLen units.Seconds

	// Telemetry hooks (nil-safe, attached via SetTelemetry). site holds
	// the node's pre-resolved metric children so the per-write hot path
	// never pays a family label lookup.
	site      *telemetry.CapSite
	telName   string
	throttled bool
	violating bool
}

type sample struct {
	dt units.Seconds
	p  units.Watts
}

// NewDomain returns a fresh domain at virtual time 0 with no caps set.
func NewDomain(cfg Config) (*Domain, error) {
	if cfg.MinCap <= 0 || cfg.TDP <= cfg.MinCap {
		return nil, fmt.Errorf("rapl: invalid cap range [%v, %v]", cfg.MinCap, cfg.TDP)
	}
	if cfg.LongWindow <= 0 {
		return nil, fmt.Errorf("rapl: long window must be positive, got %v", cfg.LongWindow)
	}
	return &Domain{cfg: cfg}, nil
}

// MustNewDomain is NewDomain that panics on configuration errors; used
// when the configuration is a compile-time constant such as Theta().
func MustNewDomain(cfg Config) *Domain {
	d, err := NewDomain(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// TDP returns the domain's thermal design power; the execution model
// reads it per phase.
func (d *Domain) TDP() units.Watts { return d.cfg.TDP }

// SetTelemetry attaches a telemetry hub: cap writes, throttle
// engagements and enforcement-window violations are reported under the
// given label. Metrics cover every attached domain; structured events
// are emitted only when eventful is true, so a driver can restrict the
// event stream to one representative node per partition. A nil hub
// detaches.
func (d *Domain) SetTelemetry(h *telemetry.Hub, name string, eventful bool) {
	d.site = h.CapSiteFor(name, eventful)
	d.telName = name
}

// Energy returns the cumulative energy counter, analogous to the
// MSR_PKG_ENERGY_STATUS register.
func (d *Domain) Energy() units.Joules { return d.energy }

// SetLongCap requests a new long-term power cap. The request is clamped
// to the supported range and takes effect after the actuation latency.
// A zero cap removes the limit.
func (d *Domain) SetLongCap(w units.Watts) {
	if w != 0 {
		w = units.ClampWatts(w, d.cfg.MinCap, d.cfg.TDP)
	}
	d.pending = append(d.pending, pendingCap{value: w, applyAt: d.now + d.cfg.ActuationLatency})
	if d.site != nil {
		d.site.CapWritten(float64(d.now), d.telName, float64(w), false)
	}
}

// SetShortCap requests a new short-term power cap with the same clamping
// and latency semantics as SetLongCap. A zero cap removes the limit.
func (d *Domain) SetShortCap(w units.Watts) {
	if w != 0 {
		w = units.ClampWatts(w, d.cfg.MinCap, d.cfg.TDP)
	}
	d.pending = append(d.pending, pendingCap{value: w, applyAt: d.now + d.cfg.ActuationLatency, shortCap: true})
	if d.site != nil {
		d.site.CapWritten(float64(d.now), d.telName, float64(w), true)
	}
}

// LongCap returns the currently effective long-term cap (0 if uncapped).
func (d *Domain) LongCap() units.Watts {
	d.applyPending()
	return d.longCap
}

// applyPending activates cap writes whose latency has elapsed.
func (d *Domain) applyPending() {
	if len(d.pending) == 0 {
		return
	}
	remaining := d.pending[:0]
	for _, p := range d.pending {
		if p.applyAt <= d.now {
			if p.shortCap {
				d.shortCap = p.value
			} else {
				d.longCap = p.value
			}
		} else {
			remaining = append(remaining, p)
		}
	}
	d.pending = remaining
}

// effectiveTarget returns the power level RAPL regulates to under the
// current caps (the long cap, lowered by the dual-cap margin when a
// short cap is also set), or 0 when uncapped.
func (d *Domain) effectiveTarget() units.Watts {
	if d.longCap <= 0 {
		return 0
	}
	target := d.longCap
	if d.shortCap > 0 {
		target = units.Watts(float64(target) * (1 - d.cfg.DualCapMargin))
	}
	return target
}

// noteThrottle reports engage transitions of demand clipping to the
// attached telemetry site (disengagement resets the state silently).
func (d *Domain) noteThrottle(demand, allowed units.Watts) {
	if allowed < demand {
		if !d.throttled {
			d.throttled = true
			d.site.ThrottleEngaged(float64(d.now), d.telName, float64(demand), float64(allowed))
		}
	} else {
		d.throttled = false
	}
}

// windowAvg returns the average power over the long-term window.
func (d *Domain) windowAvg() units.Watts {
	if d.windowLen <= 0 {
		return 0
	}
	return units.AvgPower(d.windowJ, d.windowLen)
}

// Grant returns the power a workload demanding demand Watts may draw,
// and whether both caps are set (RAPL then regulates below the long
// cap by the dual-cap margin). The allowance is the sustained level:
// demand clipped to TDP, to the long cap (lowered by the margin when a
// short cap is also set) and to the short cap. The phase execution
// model asks for it once per execution.
func (d *Domain) Grant(demand units.Watts) (allowed units.Watts, dual bool) {
	d.applyPending()
	allowed = demand
	if allowed > d.cfg.TDP {
		allowed = d.cfg.TDP
	}
	if d.longCap > 0 {
		target := d.longCap
		if d.shortCap > 0 {
			target = units.Watts(float64(target) * (1 - d.cfg.DualCapMargin))
			dual = true
		}
		if allowed > target {
			allowed = target
		}
	}
	if d.shortCap > 0 && allowed > d.shortCap {
		allowed = d.shortCap
	}
	if allowed < 0 {
		allowed = 0
	}
	if d.site != nil {
		d.noteThrottle(demand, allowed)
	}
	return allowed, dual
}

// Advance moves virtual time forward by dt with the domain drawing p
// Watts throughout, updating the energy counter and, while a telemetry
// site is attached, the enforcement window. dt must be non-negative.
func (d *Domain) Advance(dt units.Seconds, p units.Watts) {
	if dt < 0 {
		panic("rapl: negative time advance")
	}
	if dt == 0 {
		return
	}
	d.now += dt
	d.energy += units.Energy(p, dt)
	if d.site == nil {
		// Nothing observes the window without violation telemetry.
		// Pending cap writes stay queued — every cap consumer applies
		// them against the advanced clock before reading, so deferring
		// the apply to the next read is indistinguishable.
		return
	}
	d.advanceWindow(dt, p)
}

// advanceWindow is Advance's instrumented half: the moving-average
// window fold and the violation telemetry, outlined so the
// uninstrumented path stays short.
func (d *Domain) advanceWindow(dt units.Seconds, p units.Watts) {
	d.applyPending()
	e := units.Energy(p, dt)

	// Fold the sample into the moving-average window and trim it back
	// to LongWindow seconds. Consumed head samples are compacted with a
	// single copy instead of resliced away: reslicing moves the slice
	// start forward so the next append eventually reallocates, and that
	// churn was the dominant allocation of whole co-simulated episodes.
	d.window = append(d.window, sample{dt: dt, p: p})
	d.windowJ += e
	d.windowLen += dt
	drop := 0
	for d.windowLen > d.cfg.LongWindow && drop < len(d.window) {
		head := d.window[drop]
		excess := d.windowLen - d.cfg.LongWindow
		if head.dt <= excess {
			drop++
			d.windowLen -= head.dt
			d.windowJ -= units.Energy(head.p, head.dt)
		} else {
			d.window[drop].dt -= excess
			d.windowLen -= excess
			d.windowJ -= units.Energy(head.p, excess)
		}
	}
	if drop > 0 {
		n := copy(d.window, d.window[drop:])
		d.window = d.window[:n]
	}

	// Enforcement-window violation telemetry: the window average rising
	// above the effective cap target (beyond a small tolerance) is
	// reported once per excursion.
	if target := d.effectiveTarget(); target > 0 {
		const tolerance = 1.02
		if avg := d.windowAvg(); float64(avg) > float64(target)*tolerance {
			if !d.violating {
				d.violating = true
				d.site.BudgetViolation(float64(d.now), d.telName, float64(avg), float64(target))
			}
		} else {
			d.violating = false
		}
	}
}

// Reset returns the domain to its just-constructed state — virtual time
// zero, zero energy, no caps, empty enforcement window — while keeping
// the configuration, the telemetry attachment and the backing arrays,
// so pooled episodes reuse one Domain without reallocating its window
// or pending-write storage. A reset domain is indistinguishable from
// NewDomain's result in every observable.
func (d *Domain) Reset() {
	d.now, d.energy = 0, 0
	d.longCap, d.shortCap = 0, 0
	d.pending = d.pending[:0]
	d.window = d.window[:0]
	d.windowJ, d.windowLen = 0, 0
	d.throttled, d.violating = false, false
}
