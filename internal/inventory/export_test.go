package inventory

// BuildTestInventory exposes the package's test fixture to the external
// tests that persist it through internal/segment.
var BuildTestInventory = buildTestInventory
