module dcws/bench

go 1.22

require dcws v0.0.0

replace dcws => ../
