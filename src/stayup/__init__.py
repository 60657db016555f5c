"""Stay-up-late detection and behavioral-network analysis for campus event logs."""

__version__ = "0.1.0"
