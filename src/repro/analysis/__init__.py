"""Generic analysis and reporting utilities.

Statistics helpers, time-series resampling (for congestion-window
traces), ASCII rendering of figures and tables for terminal output, and
CSV/JSON result persistence.
"""
