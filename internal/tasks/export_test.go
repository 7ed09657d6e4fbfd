package tasks

// The tests that run the whole built-in flow are in package tasks_test,
// because flowlang.PSAFlow imports this package. These are the fixtures
// they share with the tests in here.

var SynthCtx = synthCtx

const AppSrc = appSrc
