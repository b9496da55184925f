module mcost/bench

go 1.22

require mcost v0.0.0

replace mcost => ../
