package af

// The set-up bounds, for the external tests that hold the library to them.
const DialTimeout, SetupTimeout = dialTimeout, setupTimeout
