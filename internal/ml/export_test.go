package ml

// CheckMI is exported to the package's external tests.
var CheckMI = checkMI
