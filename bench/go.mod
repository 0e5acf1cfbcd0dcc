module github.com/innetworkfiltering/vif/bench

go 1.24

require github.com/innetworkfiltering/vif v0.0.0

replace github.com/innetworkfiltering/vif => ../
