"""Closed-loop benchmark of the aomoto-lab command entry point."""
