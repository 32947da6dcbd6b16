"""Multiscale interior-penalty DG solver for 2D flow through and around
circular porous inclusions."""
