"""The performance benchmark of this repository; see README.md."""
