"""surplusminer: turn surplus-electricity records into mining-fleet plans,
price forecasts, and profit reports. The package root imports no layer, so a
command that computes with no array starts without numpy."""

__version__ = "0.1.0"
