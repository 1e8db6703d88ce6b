package dvswitch

// Names for the external test package (invariant_test.go), which attaches
// internal/check's per-cycle switch sweep: check imports dvswitch, so only
// an external test package can import it.

// DiffEvent is one delivery or drop as the differential tests record it.
type DiffEvent = diffEvent

// DriveDiffTraffic runs one differential-test traffic scenario on c.
var DriveDiffTraffic = driveDiffTraffic
