package detect

// LifecycleEvents is every lifecycle violation case's events, for the
// equivalence suites of package detect_test.
var LifecycleEvents = lifecycleEvents
